// Host speed readings that pick out the measured operations the host ran
// at its usual, slowed speed.
//
// On the 4-vCPU host the benchmark was tuned on, a vCPU runs the same code
// at two speeds 1.5-1.7x apart, the way a core does when another tenant's
// busy thread comes and goes on it. It switches every tenth of a second to
// few seconds, and the share of a run spent at full speed (4-42%) changes
// from run to run, so a median over a whole run moved by a quarter to a
// third between runs of the same code. A fixed kernel of integer arithmetic
// that touches no memory tells the two states apart: at full speed it
// takes 0.19-0.23 ms (the host's turbo steps), slowed 0.28-0.40 ms, and the
// benchmark's own cache use does not change it.
//
// The client reads the kernel between operations, at least every
// kReadEveryNs. The stretch between two readings is an interval. A reading
// is slowed when it takes more than kFullSpeedSlack times the run's fastest
// reading, and an interval is slowed when the readings at both its ends
// are. The end-to-end latencies and query_qps count the slowed intervals
// only: their timings repeat from run to run, while the full-speed ones
// follow the turbo step of the run and are too few. When slowed intervals
// hold less than kMinSlowedShare of the measured phase, as on a host that
// does not slow the client, every interval counts.

#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

class SpeedProbe {
 public:
  static constexpr int64_t kReadEveryNs = 20'000'000;
  static constexpr double kFullSpeedSlack = 1.3;
  static constexpr double kMinSlowedShare = 0.2;

  // The interval the next operation falls in; -1 before the first reading.
  int interval() const { return static_cast<int>(readings_.size()) - 1; }

  // Reads the kernel; the interval it opens serves reads when `reads`.
  void Read(bool reads) {
    const int64_t start = NowNs();
    sink_ = Kernel();
    readings_.push_back(Reading{start, NowNs(), reads, false});
  }
  // Reads the kernel when kReadEveryNs have passed since the last reading.
  void MaybeRead(bool reads) {
    if (readings_.empty() || NowNs() - readings_.back().end_ns >= kReadEveryNs) {
      Read(reads);
    }
  }

  // Classifies the readings; call once, after the reading that closes the
  // measured phase.
  void Finish() {
    for (const Reading& r : readings_) {
      const int64_t ns = r.end_ns - r.start_ns;
      fastest_ns_ = fastest_ns_ == 0 ? ns : std::min(fastest_ns_, ns);
    }
    for (Reading& r : readings_) {
      r.slowed = static_cast<double>(r.end_ns - r.start_ns) >
                 kFullSpeedSlack * static_cast<double>(fastest_ns_);
    }
    slowed_only_ = true;  // so that Counts() picks the slowed intervals
    slowed_share_ = Seconds(false, true) / std::max(Seconds(false, false), 1e-9);
    slowed_only_ = slowed_share_ >= kMinSlowedShare;
  }

  // Whether the operations in `interval` count.
  bool Counts(int interval) const {
    if (interval < 0 || static_cast<size_t>(interval) + 1 >= readings_.size()) {
      return false;
    }
    return !slowed_only_ ||
           (readings_[interval].slowed && readings_[interval + 1].slowed);
  }
  // Seconds in the intervals that count, those that serve reads or all.
  double CountedSeconds(bool reads_only) const {
    return Seconds(reads_only, true);
  }
  // Share of the time between the first and last reading, reading time
  // excluded, in slowed intervals.
  double slowed_share() const { return slowed_share_; }
  bool slowed_only() const { return slowed_only_; }
  double fastest_ms() const { return static_cast<double>(fastest_ns_) / 1e6; }
  int64_t readings() const { return static_cast<int64_t>(readings_.size()); }

 private:
  struct Reading {
    int64_t start_ns;
    int64_t end_ns;
    bool reads;
    bool slowed;  // set by Finish()
  };

  // About 0.2 ms at full speed: eight chained integer operations per step,
  // all in registers.
  static uint64_t Kernel() {
    uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (uint64_t i = 0; i < 200000; ++i) {
      a += i;
      b ^= a;
      c += b >> 1;
      d ^= c;
      e += i * 3;
      f ^= e;
      g += f >> 2;
      h ^= g;
    }
    return a + b + c + d + e + f + g + h;
  }
  double Seconds(bool reads_only, bool counted_only) const {
    double ns = 0;
    for (size_t i = 0; i + 1 < readings_.size(); ++i) {
      if (reads_only && !readings_[i].reads) continue;
      if (counted_only && !Counts(static_cast<int>(i))) continue;
      ns += static_cast<double>(readings_[i + 1].start_ns - readings_[i].end_ns);
    }
    return ns / 1e9;
  }

  std::vector<Reading> readings_;
  int64_t fastest_ns_ = 0;
  bool slowed_only_ = false;
  double slowed_share_ = 0;
  volatile uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
