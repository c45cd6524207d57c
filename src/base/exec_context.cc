#include "base/exec_context.h"

namespace prefrep {

std::string ExecutionStatsSnapshot::ToString() const {
  std::string out = "components=" + std::to_string(components_completed);
  out += " repairs=" + std::to_string(repairs_examined);
  out += " bytes_charged=" + std::to_string(bytes_charged);
  out += " peak_bytes=" + std::to_string(peak_bytes);
  out += " polls=" + std::to_string(polls);
  out += " pruned=" + std::to_string(components_pruned);
  out += " collapsed=" + std::to_string(components_collapsed);
  out += " enumerated=" + std::to_string(components_enumerated);
  return out;
}

void ExecutionStats::OnCharge(uint64_t bytes, uint64_t in_use_after) {
  bytes_charged_.fetch_add(bytes, std::memory_order_relaxed);
  uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (in_use_after > peak &&
         !peak_bytes_.compare_exchange_weak(peak, in_use_after,
                                            std::memory_order_relaxed)) {
  }
}

ExecutionStatsSnapshot ExecutionStats::Snapshot() const {
  ExecutionStatsSnapshot snap;
  snap.components_completed = components_completed_.load(std::memory_order_relaxed);
  snap.repairs_examined = repairs_examined_.load(std::memory_order_relaxed);
  snap.bytes_charged = bytes_charged_.load(std::memory_order_relaxed);
  snap.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
  snap.polls = polls_.load(std::memory_order_relaxed);
  snap.components_pruned = components_pruned_.load(std::memory_order_relaxed);
  snap.components_collapsed =
      components_collapsed_.load(std::memory_order_relaxed);
  snap.components_enumerated =
      components_enumerated_.load(std::memory_order_relaxed);
  return snap;
}

bool ResourceArbiter::TryCharge(size_t bytes) {
  size_t used = used_.load(std::memory_order_relaxed);
  size_t next = 0;
  do {
    next = used + bytes;
    if (next < used || next > limit_) return false;  // overflow or over limit
  } while (!used_.compare_exchange_weak(used, next, std::memory_order_relaxed));
  if (stats_ != nullptr) stats_->OnCharge(bytes, next);
  return true;
}

void ResourceArbiter::Refund(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

void ExecutionContext::set_deadline(Clock::time_point deadline) {
  deadline_ns_.store(deadline.time_since_epoch().count(),
                     std::memory_order_relaxed);
}

void ExecutionContext::SetDeadlineAfter(std::chrono::nanoseconds budget) {
  set_deadline(Clock::now() + budget);
}

void ExecutionContext::RequestCancel() {
  uint32_t expected = kLive;
  state_.compare_exchange_strong(expected, kCancelled,
                                 std::memory_order_release,
                                 std::memory_order_relaxed);
}

void ExecutionContext::Fail(const Status& status) {
  CHECK(!status.ok()) << "ExecutionContext::Fail requires a non-OK status";
  // Publish the status before the state flips so readers that observe
  // kFailed (acquire) see a fully-written fail_status_.
  std::lock_guard<std::mutex> lock(fail_mu_);
  uint32_t expected = kLive;
  if (state_.load(std::memory_order_relaxed) != kLive) return;
  fail_status_ = status;
  state_.compare_exchange_strong(expected, kFailed, std::memory_order_release,
                                 std::memory_order_relaxed);
}

void ExecutionContext::CancelAfterPolls(uint64_t n) {
  cancel_after_polls_.store(n, std::memory_order_relaxed);
}

bool ExecutionContext::ShouldStop() {
  if (state_.load(std::memory_order_relaxed) != kLive) return true;
  const uint64_t poll = stats_.polls_.fetch_add(1, std::memory_order_relaxed);
  if (poll + 1 >= cancel_after_polls_.load(std::memory_order_relaxed)) {
    RequestCancel();
    return true;
  }
  const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != kNoDeadline &&
      Clock::now().time_since_epoch().count() >= deadline) {
    uint32_t expected = kLive;
    state_.compare_exchange_strong(expected, kDeadline,
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
    return true;
  }
  return false;
}

Status ExecutionContext::status() const {
  switch (state_.load(std::memory_order_acquire)) {
    case kLive:
      return Status::Ok();
    case kCancelled:
      return Status::Cancelled("execution cancelled by caller");
    case kDeadline:
      return Status::DeadlineExceeded("execution deadline exceeded");
    default: {
      std::lock_guard<std::mutex> lock(fail_mu_);
      return fail_status_;
    }
  }
}

Status ExecutionContext::StatusWithStats() const {
  Status base = status();
  if (base.ok()) return base;
  return Status(base.code(),
                base.message() + " [" + stats_.Snapshot().ToString() + "]");
}

}  // namespace prefrep
