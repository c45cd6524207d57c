#include "server/session.h"

#include <algorithm>
#include <utility>

namespace prefrep {

namespace {

// The one lowering of a request's EvalOptions onto the planner's knobs,
// against the already-resolved effective context (null for Explain, which
// executes nothing).
CqaPlannerOptions Lower(const EvalOptions& options,
                        ExecutionContext* effective) {
  CqaPlannerOptions planner_options;
  planner_options.force_tier = options.force_tier;
  planner_options.max_dnf_disjuncts = options.limits.max_dnf_disjuncts;
  planner_options.parallel = options.Parallel(effective);
  return planner_options;
}

char KindTag(CqaRequest kind) {
  return kind == CqaRequest::kVerdict ? 'v' : 'a';
}

// Result-cache key: every input that determines the answer, exactly. The
// priority is serialized arc-by-arc — never hashed — because a key
// collision here would silently return a wrong answer.
std::string ResultKey(CqaRequest kind, RepairFamily family,
                      const Priority& priority,
                      const std::string& query_text) {
  std::string key;
  key.reserve(query_text.size() + 16 + priority.arc_count() * 8);
  key += KindTag(kind);
  key += static_cast<char>('0' + static_cast<int>(family));
  key += '|';
  for (const auto& [x, y] : priority.arcs()) {
    key += std::to_string(x);
    key += '>';
    key += std::to_string(y);
    key += ',';
  }
  key += '|';
  key += query_text;
  return key;
}

// Intersects two sorted int vectors (true iff nonempty intersection).
bool SortedIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string SessionCacheStats::ToString() const {
  std::string out = "result " + std::to_string(result_hits) + "/" +
                    std::to_string(result_misses) + " (hits/misses)";
  if (seeded_results > 0 || seed_dropped > 0) {
    out += "; seeded result " + std::to_string(seeded_results) +
           ", dropped " + std::to_string(seed_dropped);
  }
  return out;
}

Session::Session(std::shared_ptr<const Snapshot> snapshot,
                 SessionOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      result_cache_(options.max_cache_entries),
      paused_(options.start_paused) {
  const Database& db = snapshot_->db();
  const ComponentDecomposition& decomposition = snapshot_->decomposition();
  relation_components_.assign(db.relation_count(), {});
  for (TupleId id = 0; id < db.tuple_count(); ++id) {
    int component = decomposition.ComponentOf(id);
    if (component < 0) continue;
    std::vector<int>& row = relation_components_[db.RelationIndexOf(id)];
    if (row.empty() || row.back() != component) row.push_back(component);
  }
  for (std::vector<int>& row : relation_components_) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Session::Session(std::shared_ptr<const Snapshot> snapshot,
                 const Session& parent, SessionOptions options)
    : Session(std::move(snapshot), options) {
  SeedFromParent(parent);
}

Session::~Session() {
  std::vector<std::shared_ptr<PendingRequest>> flushed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    // Fail everything still queued and interrupt whatever is running; the
    // dispatcher finishes its current request, then exits.
    for (std::shared_ptr<PendingRequest>& pending : queue_) {
      pending->state = RequestState::kDone;
      flushed.push_back(pending);
    }
    queue_.clear();
    for (auto& [id, pending] : requests_) {
      if (pending->state == RequestState::kRunning &&
          pending->context != nullptr) {
        pending->context->RequestCancel();
      }
    }
  }
  queue_cv_.notify_all();
  for (std::shared_ptr<PendingRequest>& pending : flushed) {
    pending->promise.set_value(CancelledResponse(*pending));
  }
  dispatcher_.join();
}

// ---- cache ----------------------------------------------------------------

Session::ResultFootprint Session::FootprintFor(const Query& query,
                                               const Priority& priority) const {
  ResultFootprint footprint;
  for (const std::string& name : ReferencedRelations(query)) {
    Result<int> relation = snapshot_->db().RelationIndex(name);
    // A relation absent from the database stays absent in every derived
    // version (deltas cannot add relations), so it never invalidates.
    if (relation.ok()) footprint.relations.push_back(*relation);
  }
  std::sort(footprint.relations.begin(), footprint.relations.end());
  for (const auto& [x, y] : priority.arcs()) {
    footprint.max_tuple_id = std::max(footprint.max_tuple_id, std::max(x, y));
  }
  return footprint;
}

void Session::SeedFromParent(const Session& parent) {
  const SnapshotDeltaInfo* info = snapshot_->delta_info();
  CHECK(info != nullptr)
      << "derived-session constructor needs a snapshot from Snapshot::Derive";
  CHECK_EQ(info->parent_id, parent.snapshot().id())
      << "snapshot was not derived from the parent session's snapshot";

  // Relation stability in the new version: untouched by the delta, all
  // ids below first_shifted_id (so global ids — mask bits, priority arcs —
  // denote the same tuples), and no dirty parent component among the
  // components it overlaps.
  const Database& db = snapshot_->db();
  std::vector<bool> stable(db.relation_count(), true);
  for (int relation : info->touched_relations) stable[relation] = false;
  for (int relation = 0; relation < db.relation_count(); ++relation) {
    if (!stable[relation]) continue;
    int size = db.relations()[relation].size();
    // Ids are appended per relation in insertion order: the last row holds
    // the relation's largest global id.
    if ((size > 0 &&
         db.GlobalId(relation, size - 1) >= info->first_shifted_id) ||
        SortedIntersect(parent.relation_components_[relation],
                        info->dirty_parent_components)) {
      stable[relation] = false;
    }
  }
  std::scoped_lock lock(cache_mu_, parent.cache_mu_);
  parent.result_cache_.ForEachLruToMru([&](const std::string& key,
                                           const CachedResult& entry) {
    const ResultFootprint& footprint = entry.footprint;
    bool survives = info->domain_preserved &&
                    footprint.max_tuple_id < info->first_shifted_id;
    for (int relation : footprint.relations) {
      survives = survives && stable[relation];
    }
    if (!survives) {
      ++stats_.seed_dropped;
      return;
    }
    result_cache_.Put(key, entry);
    ++stats_.seeded_results;
  });
}

SessionCacheStats Session::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return stats_;
}

void Session::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  result_cache_.Clear();
  // Counters restart with the emptied cache — a cleared session must not
  // report hit/miss/seed activity it can no longer back with entries.
  stats_ = SessionCacheStats{};
}

// ---- synchronous facade ---------------------------------------------------

Status Session::Evaluate(CqaRequest kind, const Query& query,
                         const Priority& priority, RepairFamily family,
                         const EvalOptions& options, CachedResult* out,
                         bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  PREFREP_RETURN_IF_ERROR(CheckPriorityFits(snapshot_->graph(), priority));
  // A forced tier exists to really execute that tier; serving it from the
  // cache (or caching its result under the unforced key) would defeat it.
  const bool cacheable = !options.force_tier.has_value();
  std::string key;
  if (cacheable) {
    key = ResultKey(kind, family, priority, query.ToString());
    std::lock_guard<std::mutex> lock(cache_mu_);
    // The key's kind tag guarantees the entry holds the matching member.
    const CachedResult* entry = result_cache_.Get(key);
    if (entry != nullptr) {
      ++stats_.result_hits;
      out->verdict = entry->verdict;
      out->answers = entry->answers;
      out->plan = entry->plan;
      if (cache_hit != nullptr) *cache_hit = true;
      return Status::Ok();
    }
    ++stats_.result_misses;
  }
  EvalContextScope scope(options);
  const CqaPlannerOptions planner_options = Lower(options, scope.context());
  Status status = Status::Ok();
  if (kind == CqaRequest::kVerdict) {
    Result<CqaVerdict> verdict = PlannedConsistentAnswer(
        problem(), priority, family, query, planner_options, &out->plan);
    if (verdict.ok()) out->verdict = *verdict;
    status = verdict.status();
  } else {
    Result<OpenAnswer> answers = PlannedConsistentAnswers(
        problem(), priority, family, query, planner_options, &out->plan);
    if (answers.ok()) out->answers = *std::move(answers);
    status = answers.status();
  }
  if (!status.ok() || !cacheable) return status;
  out->footprint = FootprintFor(query, priority);
  std::lock_guard<std::mutex> lock(cache_mu_);
  result_cache_.Put(key, *out);
  return status;
}

Result<CqaVerdict> Session::Ask(const Query& query, const Priority& priority,
                                RepairFamily family,
                                const EvalOptions& options, CqaPlan* executed,
                                bool* cache_hit) {
  CachedResult result;
  Status status = Evaluate(CqaRequest::kVerdict, query, priority, family,
                           options, &result, cache_hit);
  if (executed != nullptr) *executed = std::move(result.plan);
  if (!status.ok()) return status;
  return *result.verdict;
}

Result<OpenAnswer> Session::Answers(const Query& query,
                                    const Priority& priority,
                                    RepairFamily family,
                                    const EvalOptions& options,
                                    CqaPlan* executed, bool* cache_hit) {
  CachedResult result;
  Status status = Evaluate(CqaRequest::kOpenAnswers, query, priority, family,
                           options, &result, cache_hit);
  if (executed != nullptr) *executed = std::move(result.plan);
  if (!status.ok()) return status;
  return *std::move(result.answers);
}

Result<AggregateRange> Session::Aggregate(std::string_view relation,
                                          std::string_view attribute,
                                          AggregateFunction fn,
                                          const Priority& priority,
                                          RepairFamily family,
                                          const EvalOptions& options,
                                          CqaPlan* executed) {
  EvalContextScope scope(options);
  return PlannedAggregateRange(problem(), priority, family, relation,
                               attribute, fn, Lower(options, scope.context()),
                               executed);
}

Result<std::vector<DynamicBitset>> Session::Repairs(
    const Priority& priority, RepairFamily family,
    const EvalOptions& options) {
  return PreferredRepairs(snapshot_->graph(), priority, family, options);
}

CqaPlan Session::Explain(const Query& query, const Priority& priority,
                         RepairFamily family, CqaRequest kind,
                         const EvalOptions& options) const {
  return ExplainPlan(problem(), priority, family, query, kind,
                     Lower(options, nullptr));
}

// ---- asynchronous facade --------------------------------------------------

SessionResponse Session::CancelledResponse(const PendingRequest& pending) {
  SessionResponse response;
  response.id = pending.id;
  response.kind = pending.request.kind;
  Status cancelled = Status::Cancelled("request cancelled before completion");
  response.verdict = cancelled;
  response.answers = cancelled;
  return response;
}

Result<uint64_t> Session::Submit(SessionRequest request) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("SessionRequest.query is null");
  }
  auto pending = std::make_shared<PendingRequest>();
  pending->request = std::move(request);
  if (pending->request.options.context == nullptr) {
    pending->context =
        std::make_unique<ExecutionContext>(pending->request.options.limits);
  }
  pending->future = pending->promise.get_future().share();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return Status::FailedPrecondition("session is shutting down");
    }
    if (queue_.size() + running_ >= options_.max_pending_requests) {
      return Status::ResourceExhausted(
          "session admission limit reached (" +
          std::to_string(options_.max_pending_requests) +
          " requests queued or running)");
    }
    pending->id = ++next_request_id_;
    queue_.push_back(pending);
    requests_.emplace(pending->id, pending);
  }
  queue_cv_.notify_all();
  return pending->id;
}

Result<SessionResponse> Session::Wait(uint64_t request_id) {
  std::shared_ptr<PendingRequest> pending;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end()) {
      return Status::NotFound("unknown request id " +
                              std::to_string(request_id));
    }
    pending = it->second;
  }
  SessionResponse response = pending->future.get();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    requests_.erase(request_id);
  }
  return response;
}

Status Session::Cancel(uint64_t request_id) {
  std::shared_ptr<PendingRequest> to_fail;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end()) {
      return Status::NotFound("unknown request id " +
                              std::to_string(request_id));
    }
    std::shared_ptr<PendingRequest>& pending = it->second;
    switch (pending->state) {
      case RequestState::kQueued: {
        pending->state = RequestState::kDone;
        for (auto queue_it = queue_.begin(); queue_it != queue_.end();
             ++queue_it) {
          if ((*queue_it)->id == request_id) {
            queue_.erase(queue_it);
            break;
          }
        }
        to_fail = pending;
        break;
      }
      case RequestState::kRunning: {
        ExecutionContext* context = pending->context != nullptr
                                        ? pending->context.get()
                                        : pending->request.options.context;
        if (context != nullptr) context->RequestCancel();
        break;
      }
      case RequestState::kDone:
        break;  // already finished: cancelling is a no-op
    }
  }
  if (to_fail != nullptr) {
    to_fail->promise.set_value(CancelledResponse(*to_fail));
  }
  return Status::Ok();
}

void Session::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

size_t Session::pending_requests() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size() + running_;
}

SessionResponse Session::Execute(PendingRequest& pending) {
  SessionResponse response;
  response.id = pending.id;
  response.kind = pending.request.kind;
  EvalOptions options = pending.request.options;
  if (pending.context != nullptr) {
    // Arm the deadline at execution start, not admission: queue time does
    // not count against the request's budget.
    if (options.deadline.has_value()) {
      pending.context->SetDeadlineAfter(*options.deadline);
    }
    options.context = pending.context.get();
  }
  const SessionRequest& request = pending.request;
  if (request.kind == CqaRequest::kVerdict) {
    response.verdict = Ask(*request.query, request.priority, request.family,
                           options, &response.executed, &response.cache_hit);
  } else {
    response.answers =
        Answers(*request.query, request.priority, request.family, options,
                &response.executed, &response.cache_hit);
  }
  return response;
}

void Session::DispatchLoop() {
  for (;;) {
    std::shared_ptr<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_ || (!paused_ && !queue_.empty());
      });
      if (stop_) return;  // the destructor flushes whatever is queued
      pending = queue_.front();
      queue_.pop_front();
      pending->state = RequestState::kRunning;
      ++running_;
    }
    SessionResponse response = Execute(*pending);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending->state = RequestState::kDone;
      --running_;
    }
    pending->promise.set_value(std::move(response));
    queue_cv_.notify_all();
  }
}

}  // namespace prefrep
