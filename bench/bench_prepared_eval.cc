// Per-repair evaluation throughput: reference evaluator vs PreparedQuery.
//
// The CQA hot loop (cqa/cqa.cc) evaluates one fixed query once per
// enumerated repair. The reference evaluator re-derives validation, the
// active domain and per-atom scans on every call, so its per-repair cost
// grows with the database; the prepared path hoists all of it into
// Compile and pays only the quantifier search per repair. This benchmark
// isolates exactly that per-repair cost on key-group instances (one
// repair = one choice per conflict clique), plus the one-off Compile cost
// for context.

#include <vector>

#include "bench_common.h"
#include "query/evaluator.h"
#include "query/prepared.h"

namespace prefrep::bench {
namespace {

// `count` random repairs of the key-groups instance: one kept tuple per
// group of `group_size` conflicting tuples.
std::vector<DynamicBitset> RandomRepairs(const Database& db, int groups,
                                         int group_size, int count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicBitset> repairs;
  repairs.reserve(count);
  for (int r = 0; r < count; ++r) {
    DynamicBitset repair(db.tuple_count());
    for (int g = 0; g < groups; ++g) {
      repair.Set(g * group_size + static_cast<int>(rng.UniformInt(group_size)));
    }
    repairs.push_back(std::move(repair));
  }
  return repairs;
}

constexpr int kGroupSize = 3;
constexpr int kRepairPoolSize = 64;

// The Fig. 5 conjunctive shape: exists v . R(0, v) and v < 1.
std::unique_ptr<Query> ConjunctiveQuery() {
  return MustParse("exists v . R(0, v) and v < 1");
}

void BM_PerRepair_ReferenceEvaluator(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  GeneratedInstance instance = MakeKeyGroupsInstance(groups, kGroupSize);
  std::vector<DynamicBitset> repairs =
      RandomRepairs(*instance.db, groups, kGroupSize, kRepairPoolSize, 7);
  std::unique_ptr<Query> query = ConjunctiveQuery();
  size_t next = 0;
  bool holds = false;
  for (auto _ : state) {
    auto result =
        EvalClosed(*instance.db, &repairs[next++ % kRepairPoolSize], *query);
    CHECK(result.ok());
    holds = *result;
    KeepAlive(holds);
  }
  state.counters["tuples"] = static_cast<double>(instance.db->tuple_count());
  state.SetLabel("EvalClosed: re-derives domain/validation per repair");
}
BENCHMARK(BM_PerRepair_ReferenceEvaluator)
    ->RangeMultiplier(8)
    ->Range(8, 4096)
    ->Unit(benchmark::kMicrosecond);

void BM_PerRepair_PreparedEvaluator(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  GeneratedInstance instance = MakeKeyGroupsInstance(groups, kGroupSize);
  std::vector<DynamicBitset> repairs =
      RandomRepairs(*instance.db, groups, kGroupSize, kRepairPoolSize, 7);
  std::unique_ptr<Query> query = ConjunctiveQuery();
  auto prepared = PreparedQuery::Compile(*instance.db, *query);
  CHECK(prepared.ok()) << prepared.status().ToString();
  size_t next = 0;
  bool holds = false;
  for (auto _ : state) {
    auto result = prepared->EvalClosed(&repairs[next++ % kRepairPoolSize]);
    CHECK(result.ok());
    holds = *result;
    KeepAlive(holds);
  }
  state.counters["tuples"] = static_cast<double>(instance.db->tuple_count());
  state.SetLabel("PreparedQuery: per-repair quantifier search only");
}
BENCHMARK(BM_PerRepair_PreparedEvaluator)
    ->RangeMultiplier(8)
    ->Range(8, 4096)
    ->Unit(benchmark::kMicrosecond);

// The hoisted one-off cost: compiling (validation, typing, active domain).
// Amortized over a repair space this rounds to zero.
void BM_PreparedCompile(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  GeneratedInstance instance = MakeKeyGroupsInstance(groups, kGroupSize);
  std::unique_ptr<Query> query = ConjunctiveQuery();
  for (auto _ : state) {
    auto prepared = PreparedQuery::Compile(*instance.db, *query);
    CHECK(prepared.ok());
    benchmark::DoNotOptimize(prepared);
  }
  state.counters["tuples"] = static_cast<double>(instance.db->tuple_count());
  state.SetLabel("Compile (once per CQA call)");
}
BENCHMARK(BM_PreparedCompile)
    ->RangeMultiplier(8)
    ->Range(8, 4096)
    ->Unit(benchmark::kMicrosecond);

// Open-query variant: per-repair answer-set computation for R(0, y).
void BM_PerRepairOpen_ReferenceEvaluator(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  GeneratedInstance instance = MakeKeyGroupsInstance(groups, kGroupSize);
  std::vector<DynamicBitset> repairs =
      RandomRepairs(*instance.db, groups, kGroupSize, kRepairPoolSize, 9);
  std::unique_ptr<Query> query = MustParse("R(0, y)");
  size_t next = 0;
  for (auto _ : state) {
    auto answer =
        EvalOpen(*instance.db, &repairs[next++ % kRepairPoolSize], *query);
    CHECK(answer.ok());
    benchmark::DoNotOptimize(answer->rows);
  }
  state.counters["tuples"] = static_cast<double>(instance.db->tuple_count());
}
BENCHMARK(BM_PerRepairOpen_ReferenceEvaluator)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_PerRepairOpen_PreparedEvaluator(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  GeneratedInstance instance = MakeKeyGroupsInstance(groups, kGroupSize);
  std::vector<DynamicBitset> repairs =
      RandomRepairs(*instance.db, groups, kGroupSize, kRepairPoolSize, 9);
  std::unique_ptr<Query> query = MustParse("R(0, y)");
  auto prepared = PreparedQuery::Compile(*instance.db, *query);
  CHECK(prepared.ok());
  size_t next = 0;
  for (auto _ : state) {
    auto answer = prepared->EvalOpen(&repairs[next++ % kRepairPoolSize]);
    CHECK(answer.ok());
    benchmark::DoNotOptimize(answer->rows);
  }
  state.counters["tuples"] = static_cast<double>(instance.db->tuple_count());
}
BENCHMARK(BM_PerRepairOpen_PreparedEvaluator)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
