// Server throughput: what the Session/Snapshot facade buys a resident
// server over calling the planner free functions per request.
//
// Four rows over the same workload (a multi-component instance, a ranking
// priority, G-Rep, and a small rotating query mix whose quantified members
// route to the enumeration tier):
//   - free functions: the pre-server cost — every request re-plans and
//     re-compiles;
//   - session, cold cache: the facade with its cache cleared every
//     request — measures facade overhead without reuse;
//   - session, warm cache: steady-state serving, where repeats hit the
//     result cache (->Threads(1..8) gives QPS at N concurrent clients
//     sharing ONE session — items_per_second is the aggregate);
//   - session, Submit/Wait: the async queue's round-trip overhead on a
//     warm cache (admission, dispatch thread, promise hand-off).
//
// The warm-vs-cold gap is the PR's acceptance signal (recorded in
// BENCH_pr8.json); the host is single-core, so thread rows measure
// contention, not parallel speedup.

#include "bench_common.h"
#include "server/session.h"
#include "server/snapshot.h"

namespace prefrep::bench {
namespace {

constexpr int kQueryMix = 4;

struct ServerSetup {
  std::shared_ptr<const Snapshot> snapshot;
  Priority priority;
  std::vector<std::unique_ptr<Query>> queries;
};

ServerSetup& SharedSetup() {
  static ServerSetup* setup = [] {
    auto* s = new ServerSetup();
    Rng rng(20260808);
    GeneratedInstance inst = MakeComponentsInstance(rng, 24, 3, 5);
    auto snapshot = Snapshot::Create(*inst.db, inst.fds);
    CHECK(snapshot.ok()) << snapshot.status().ToString();
    s->snapshot = *std::move(snapshot);
    s->priority = RandomRankingPriority(rng, s->snapshot->graph(), 0.7);
    s->queries.push_back(MustParse("exists x, y, z . R(x, y, z)"));
    s->queries.push_back(MustParse("forall x, y, z . R(x, y, z)"));
    s->queries.push_back(MustParse("exists y, z . R(0, y, z)"));
    s->queries.push_back(MustParse("exists x, z . R(x, 0, z)"));
    CHECK(s->queries.size() == kQueryMix);
    return s;
  }();
  return *setup;
}

// One shared warm session for the multi-client rows; created on first use
// so single-binary filters still work.
Session& SharedWarmSession() {
  static Session* session = [] {
    ServerSetup& setup = SharedSetup();
    auto* s = new Session(setup.snapshot);
    for (const auto& query : setup.queries) {
      auto verdict =
          s->Ask(*query, setup.priority, RepairFamily::kGlobal, {});
      CHECK(verdict.ok()) << verdict.status().ToString();
    }
    return s;
  }();
  return *session;
}

// ------------------------------------------ row 1: free-function baseline --

void BM_ServerThroughput_FreeFunctions(benchmark::State& state) {
  ServerSetup& setup = SharedSetup();
  int i = 0;
  for (auto _ : state) {
    const Query& query = *setup.queries[static_cast<size_t>(i++ % kQueryMix)];
    auto verdict = PlannedConsistentAnswer(
        setup.snapshot->problem(), setup.priority, RepairFamily::kGlobal,
        query);
    CHECK(verdict.ok());
    benchmark::DoNotOptimize(*verdict);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("per-request plan + compile + execute");
}
BENCHMARK(BM_ServerThroughput_FreeFunctions)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------- row 2: session, cold cache --

void BM_ServerThroughput_SessionCold(benchmark::State& state) {
  ServerSetup& setup = SharedSetup();
  Session session(setup.snapshot);
  int i = 0;
  for (auto _ : state) {
    session.ClearCache();
    const Query& query = *setup.queries[static_cast<size_t>(i++ % kQueryMix)];
    auto verdict =
        session.Ask(query, setup.priority, RepairFamily::kGlobal, {});
    CHECK(verdict.ok());
    benchmark::DoNotOptimize(*verdict);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("caches cleared per request");
}
BENCHMARK(BM_ServerThroughput_SessionCold)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------- row 3: session, warm cache --

void BM_ServerThroughput_SessionWarm(benchmark::State& state) {
  ServerSetup& setup = SharedSetup();
  Session& session = SharedWarmSession();
  // Stagger per-thread rotation so concurrent clients mix their hits.
  int i = state.thread_index();
  for (auto _ : state) {
    const Query& query = *setup.queries[static_cast<size_t>(i++ % kQueryMix)];
    auto verdict =
        session.Ask(query, setup.priority, RepairFamily::kGlobal, {});
    CHECK(verdict.ok());
    benchmark::DoNotOptimize(*verdict);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("steady-state result-cache hits");
}
BENCHMARK(BM_ServerThroughput_SessionWarm)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond);

// -------------------------------------- row 4: async queue, warm cache --

void BM_ServerThroughput_AsyncSubmitWait(benchmark::State& state) {
  ServerSetup& setup = SharedSetup();
  Session& session = SharedWarmSession();
  int i = 0;
  for (auto _ : state) {
    SessionRequest request;
    request.kind = CqaRequest::kVerdict;
    request.query =
        setup.queries[static_cast<size_t>(i++ % kQueryMix)]->Clone();
    request.priority = setup.priority;
    request.family = RepairFamily::kGlobal;
    auto id = session.Submit(std::move(request));
    CHECK(id.ok()) << id.status().ToString();
    auto response = session.Wait(*id);
    CHECK(response.ok());
    CHECK(response->verdict.ok());
    benchmark::DoNotOptimize(*response->verdict);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("Submit/Wait round trip, warm cache");
}
BENCHMARK(BM_ServerThroughput_AsyncSubmitWait)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
