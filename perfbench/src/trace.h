// In-memory span recorder for the traced run, plus the small statistics the
// benchmark reports.
//
// A span has a name, a start and an end (steady_clock nanoseconds since the
// run began), the index of its parent span (-1 for a root) and the id of
// the request or update batch it belongs to. Spans are kept in memory and
// written out when the run ends. Layers that the library reaches only
// inside another layer's call are timed by calling their public function
// again, beside the enclosing call, on the same inputs; such a span is
// recorded with the enclosing call as its parent even though it runs after
// it, so that a span's self time (its duration minus its children's) is
// the caller's own time.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median and other quantiles by linear interpolation between order
// statistics (the "inclusive" method).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op_id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(NowNs()) {}

  bool enabled() const { return enabled_; }
  // Pauses or resumes recording; call it with no span open.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span under the innermost open span; returns its index, or -1
  // when tracing is off.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs() - origin_, 0, parent, op_id_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs() - origin_;
    open_.pop_back();
  }
  // Records an already-timed span under `parent` (a mirrored layer call).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(
        Span{name, start_ns - origin_, end_ns - origin_, parent, op_id_});
    return static_cast<int>(spans_.size()) - 1;
  }
  double DurationUs(int index) const {
    return index < 0 ? 0.0
                     : static_cast<double>(spans_[index].end_ns -
                                           spans_[index].start_ns) /
                           1e3;
  }

  void SetOp(int64_t op_id) { op_id_ = op_id; }

  // Self time of every span: its duration minus its children's.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  // Median duration (µs) of the spans named `name`.
  double DurationP50Us(const std::string& name) const {
    std::vector<double> values;
    for (const Span& s : spans_) {
      if (name == s.name) values.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return Quantile(values, 0.5);
  }

  // Median self time (µs) of the spans named `name`.
  double SelfP50Us(const std::string& name) const {
    const std::vector<int64_t> self = SelfTimes();
    std::vector<double> values;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) values.push_back(self[i] / 1e3);
    }
    return Quantile(values, 0.5);
  }

  // Writes every span as one JSON line, then one summary line per name:
  // count, total, self time and p50 (µs).
  bool Write(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"span\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d, \"op\": %lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.op_id));
    }
    const std::vector<int64_t> self = SelfTimes();
    std::map<std::string, std::vector<size_t>> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name].push_back(i);
    }
    for (const auto& [name, members] : by_name) {
      double total = 0;
      double self_total = 0;
      std::vector<double> durations;
      for (size_t i : members) {
        const double d = static_cast<double>(spans_[i].end_ns -
                                             spans_[i].start_ns) /
                         1e3;
        durations.push_back(d);
        total += d;
        self_total += static_cast<double>(self[i]) / 1e3;
      }
      std::fprintf(out,
                   "{\"layer_summary\": \"%s\", \"count\": %zu, "
                   "\"total_us\": %.3f, \"self_us\": %.3f, \"p50_us\": %.3f}\n",
                   name.c_str(), members.size(), total, self_total,
                   Quantile(durations, 0.5));
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  int64_t origin_;
  int64_t op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~SpanScope() { tracer_.End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
