// EvalOptions: the options type of the server facade (src/server/) and
// of PreferredRepairs, one struct for every knob a request can set:
//
//   threads     sharding width (ParallelOptions.threads)
//   force_tier  planner tier override (CqaPlannerOptions.force_tier)
//   deadline    per-call wall-clock budget; an ExecutionContext is
//               materialized on demand to enforce it
//   limits      per-call ExecutionLimits (byte / DNF / repair-list caps)
//   context     an externally owned ExecutionContext; when set it wins
//               and `deadline`/`limits` here are ignored (the context
//               already carries its own)
//
// EvalContextScope turns an EvalOptions into the effective per-call
// governance: it owns a fresh ExecutionContext exactly when the options
// demand one (deadline armed or non-default limits, and no external
// context), so ungoverned calls keep taking the zero-overhead paths
// (context == nullptr all the way down).
//
// This header lives in base/ — below core/ and cqa/ — so that both the
// engine layers and the server facade can name the same struct. CqaTier
// is defined here (rather than cqa/planner.h, which re-exports it) for
// the same layering reason: EvalOptions::force_tier needs the enum.

#ifndef PREFREP_BASE_EVAL_OPTIONS_H_
#define PREFREP_BASE_EVAL_OPTIONS_H_

#include <chrono>
#include <optional>

#include "base/exec_context.h"
#include "base/thread_pool.h"

namespace prefrep {

// The CQA planner's execution tiers (see cqa/planner.h for the routing
// rules; the enum lives here so base-level EvalOptions can carry it).
enum class CqaTier {
  kSingleRepair,    // tier 0: conflict-free database, evaluate once
  kGroundFastPath,  // tier 1: polynomial Rep-only engine
  kEnumeration,     // tier 2: sharded repair-product enumeration
};

struct EvalOptions {
  // Worker threads for the sharded enumeration paths; <= 1 is the serial
  // default. Results are bit-for-bit independent of this knob.
  int threads = 1;

  // Forces a planner tier instead of planning (differential tests and
  // benches). Forcing an inapplicable tier fails with kInvalidArgument.
  std::optional<CqaTier> force_tier;

  // Per-call wall-clock budget; unset means no deadline. Enforced by a
  // call-scoped ExecutionContext (expiry surfaces as kDeadlineExceeded).
  std::optional<std::chrono::nanoseconds> deadline;

  // Per-call resource limits (component-list bytes, DNF caps, repair-list
  // cap). Defaults reproduce the historical constants; leaving them
  // untouched keeps the call on the ungoverned fast path.
  ExecutionLimits limits;

  // Externally owned context (cooperative cancel, shared governance).
  // When set, it supersedes `deadline` and `limits` above.
  ExecutionContext* context = nullptr;

  // True iff the options need a call-scoped context to be honored (some
  // governance requested but no external context supplied).
  bool NeedsOwnContext() const {
    return context == nullptr &&
           (deadline.has_value() || !(limits == ExecutionLimits{}));
  }

  // The ParallelOptions view of these options, against `effective` (the
  // external context or an EvalContextScope-owned one).
  ParallelOptions Parallel(ExecutionContext* effective) const {
    ParallelOptions parallel;
    parallel.threads = threads;
    parallel.context = effective;
    return parallel;
  }
};

// Materializes the effective ExecutionContext for one call: the external
// one when given, a scope-owned one when the options demand governance,
// nullptr (ungoverned) otherwise. Stack-allocate next to the call.
class EvalContextScope {
 public:
  explicit EvalContextScope(const EvalOptions& options) {
    if (options.context != nullptr) {
      context_ = options.context;
      return;
    }
    if (options.NeedsOwnContext()) {
      owned_.emplace(options.limits);
      if (options.deadline.has_value()) {
        owned_->SetDeadlineAfter(*options.deadline);
      }
      context_ = &*owned_;
    }
  }

  EvalContextScope(const EvalContextScope&) = delete;
  EvalContextScope& operator=(const EvalContextScope&) = delete;

  // May be nullptr (ungoverned call).
  ExecutionContext* context() { return context_; }

 private:
  std::optional<ExecutionContext> owned_;
  ExecutionContext* context_ = nullptr;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_EVAL_OPTIONS_H_
