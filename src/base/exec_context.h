// ExecutionContext: per-query resource governance for the CQA stack.
//
// Preferred-repair CQA is Pi^p_2-complete in the general case, so every
// long-running loop in the engine must be boundable: by wall-clock deadline,
// by cooperative cancellation, and by memory/size budgets. ExecutionContext
// bundles the three concerns behind one object that is threaded through
// `ParallelOptions` (see thread_pool.h) into every enumeration engine:
//
//   - Deadline: a steady_clock time point; expiry latches kDeadlineExceeded.
//   - Cancellation: `RequestCancel()` is lock-free and async-signal-safe
//     (the query shell calls it from a SIGINT handler); the first interrupt
//     wins and latches the context's terminal status.
//   - Budgets: `ExecutionLimits` carries the per-context knobs that used to
//     be scattered constexprs (component-list bytes, DNF disjunct/literal
//     caps, repair-list cap). `ResourceArbiter` is the shared accounting
//     interface (atomic TryCharge/Refund) generalizing the old
//     ComponentListBudget.
//
// Engines poll `ShouldStop()` at step boundaries (MIS frame pops, C-Rep
// choice-tree nodes, odometer ticks, shard evaluations, DNF disjuncts). The
// poll is two relaxed atomic loads when no deadline is armed; a clock read
// is added only while a deadline is set. Polling callbacks return false to
// stop enumeration; Status-returning entry points then consult
// `interrupted()`/`status()` to convert the early stop into kCancelled or
// kDeadlineExceeded, annotated with an ExecutionStats snapshot.
//
// All members are thread-safe; one context is shared by every worker of a
// query. A context is single-use: once interrupted it stays interrupted.

#ifndef PREFREP_BASE_EXEC_CONTEXT_H_
#define PREFREP_BASE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "base/status.h"

namespace prefrep {

// Per-context resource knobs. Defaults reproduce the historical constexpr
// budgets exactly (kComponentListBudgetBytes, kDefaultDnfDisjunctBudget,
// kDefaultDnfLiteralBudget, and the 2^20 AllMaximalIndependentSets /
// PreferredRepairs list cap), so a default context changes no behavior.
struct ExecutionLimits {
  // Bytes of materialized per-component repair lists admitted before the
  // enumeration falls back to streaming (was graph/components.h's 256 MB).
  size_t component_list_budget_bytes = size_t{256} << 20;
  // Ground/quantifier-free DNF expansion caps (was query/normal_form.h's
  // kDefaultDnfDisjunctBudget / kDefaultDnfLiteralBudget).
  size_t max_dnf_disjuncts = 65536;
  size_t max_dnf_literals = size_t{1} << 20;
  // Cap on materialized repair lists returned by Result-valued enumerators.
  size_t max_repair_list = size_t{1} << 20;

  friend bool operator==(const ExecutionLimits&,
                         const ExecutionLimits&) = default;
};

// THE default repair-list cap (2^20): the single source of truth for the
// `limit` default of every Result-valued enumerator (PreferredRepairs,
// AllRepairs, AllMaximalIndependentSets, denial/extension forms).
// Attached contexts override it per call via limits().max_repair_list.
inline constexpr size_t kDefaultRepairListLimit =
    ExecutionLimits{}.max_repair_list;

// Monotonic counters describing how far a query got before finishing or
// being interrupted. Updated with relaxed atomics from all worker lanes;
// `Snapshot()` gives a consistent-enough copy for reporting (individual
// counters are exact, cross-counter skew is possible while running).
struct ExecutionStatsSnapshot {
  uint64_t components_completed = 0;
  uint64_t repairs_examined = 0;
  uint64_t bytes_charged = 0;  // cumulative arbiter admissions
  uint64_t peak_bytes = 0;     // high-water mark of concurrently held bytes
  uint64_t polls = 0;          // ShouldStop() calls observed
  // How tier 2 split the repair product (cqa/cqa.h ObservableComponents):
  // components no atom of the request can observe, components whose
  // total projected priority fixed their one member (P4), and components
  // whose family was enumerated.
  uint64_t components_pruned = 0;
  uint64_t components_collapsed = 0;
  uint64_t components_enumerated = 0;

  // "components=3 repairs=1204 bytes_charged=65536 peak_bytes=4096 polls=...
  // pruned=210 collapsed=4 enumerated=2"
  std::string ToString() const;
};

class ExecutionStats {
 public:
  void AddComponentsCompleted(uint64_t n = 1) {
    components_completed_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddRepairsExamined(uint64_t n = 1) {
    repairs_examined_.fetch_add(n, std::memory_order_relaxed);
  }
  // One tier-2 product's component split (see ExecutionStatsSnapshot).
  void AddComponentSplit(uint64_t pruned, uint64_t collapsed,
                         uint64_t enumerated) {
    components_pruned_.fetch_add(pruned, std::memory_order_relaxed);
    components_collapsed_.fetch_add(collapsed, std::memory_order_relaxed);
    components_enumerated_.fetch_add(enumerated, std::memory_order_relaxed);
  }
  // Records an admitted charge of `bytes` with `in_use_after` bytes held
  // across the owning arbiter after the charge.
  void OnCharge(uint64_t bytes, uint64_t in_use_after);

  uint64_t repairs_examined() const {
    return repairs_examined_.load(std::memory_order_relaxed);
  }
  uint64_t components_completed() const {
    return components_completed_.load(std::memory_order_relaxed);
  }

  ExecutionStatsSnapshot Snapshot() const;

 private:
  friend class ExecutionContext;
  std::atomic<uint64_t> components_completed_{0};
  std::atomic<uint64_t> repairs_examined_{0};
  std::atomic<uint64_t> bytes_charged_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> components_pruned_{0};
  std::atomic<uint64_t> components_collapsed_{0};
  std::atomic<uint64_t> components_enumerated_{0};
};

// Thread-safe byte-accounting against a fixed limit; the unified successor
// of graph/components.h's ComponentListBudget. One arbiter governs one
// enumeration call; its limit comes from ExecutionLimits and its admissions
// are mirrored into ExecutionStats when a context is attached.
class ResourceArbiter {
 public:
  explicit ResourceArbiter(size_t limit_bytes, ExecutionStats* stats = nullptr)
      : limit_(limit_bytes), stats_(stats) {}

  ResourceArbiter(const ResourceArbiter&) = delete;
  ResourceArbiter& operator=(const ResourceArbiter&) = delete;

  // Attempts to admit `bytes`; returns false (without charging) if doing so
  // would exceed the limit.
  [[nodiscard]] bool TryCharge(size_t bytes);

  // Returns previously charged bytes to the pool.
  void Refund(size_t bytes);

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t limit() const { return limit_; }

 private:
  const size_t limit_;
  ExecutionStats* const stats_;
  std::atomic<size_t> used_{0};
};

class ExecutionContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecutionContext() = default;
  explicit ExecutionContext(const ExecutionLimits& limits) : limits_(limits) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  const ExecutionLimits& limits() const { return limits_; }
  ExecutionStats& stats() { return stats_; }
  const ExecutionStats& stats() const { return stats_; }

  // Arms (or re-arms) the deadline. Checked inside ShouldStop(); queries
  // without a deadline never read the clock.
  void set_deadline(Clock::time_point deadline);
  void SetDeadlineAfter(std::chrono::nanoseconds budget);

  // Requests cooperative cancellation. Lock-free and async-signal-safe:
  // performs only atomic operations, so it may be called from a signal
  // handler or any thread. Idempotent; loses to an earlier interrupt.
  void RequestCancel();

  // Latches `status` (must be non-OK) as the terminal state, e.g. a worker
  // exception converted to Status. First interrupt wins. Not signal-safe.
  void Fail(const Status& status);

  // Test facility: the n-th ShouldStop() poll (1-based, counted across all
  // threads) triggers RequestCancel(). n == 0 cancels on the next poll.
  // Drives the cancellation-fuzz suite's "cancel at an arbitrary step".
  void CancelAfterPolls(uint64_t n);

  // The hot poll, called at every enumeration step boundary. Returns true
  // once the context is interrupted (cancelled / deadline expired / failed).
  bool ShouldStop();

  // True once any interrupt latched. Unlike ShouldStop(), does not count as
  // a poll and never arms deadline/cancel transitions.
  bool interrupted() const {
    return state_.load(std::memory_order_acquire) != kLive;
  }

  // OK while live; the latched kCancelled / kDeadlineExceeded / failure
  // Status once interrupted.
  Status status() const;

  // Like status(), with an ExecutionStats snapshot appended to the message.
  Status StatusWithStats() const;

  uint64_t poll_count() const {
    return stats_.polls_.load(std::memory_order_relaxed);
  }

 private:
  enum : uint32_t { kLive = 0, kCancelled = 1, kDeadline = 2, kFailed = 3 };
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  ExecutionLimits limits_;
  ExecutionStats stats_;
  std::atomic<uint32_t> state_{kLive};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  std::atomic<uint64_t> cancel_after_polls_{
      std::numeric_limits<uint64_t>::max()};
  mutable std::mutex fail_mu_;  // guards fail_status_ only
  Status fail_status_;          // set once before state_ -> kFailed
};

}  // namespace prefrep

#endif  // PREFREP_BASE_EXEC_CONTEXT_H_
