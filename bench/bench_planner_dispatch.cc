// Planner dispatch: what the tier classifier buys over always running the
// sharded enumeration engine.
//
// Three matched pairs, each "planned" (the planner picks the tier) vs
// "forced enumeration" (the planner's own differential reference):
//   - tier 0: a conflict-free key-group instance, where enumeration pays
//     a per-component decomposition for nothing;
//   - tier 1 verdicts: a ground disjunction on r_n, where the repair
//     space is 2^n but the conflict-graph prover is linear;
//   - tier 1 collapse: G-Rep under an *empty* priority on r_n, where P3
//     collapses the family to Rep and the fast path applies even though
//     the caller asked for a preferred family.
// The planned side must beat forced enumeration by >= 10x on the largest
// size of each pair (checked offline against BENCH_pr6.json).
//
// Two planned-only families time tier 2's component pruning, where the
// unpruned product is far too large to enumerate:
//   - one-group S-, G- and C-Rep verdicts on 240 key-group components
//     under total, mostly-total (0.9) and random (0.5) rankings;
//   - the scaling probe: one C-Rep verdict about one 8-tuple group under
//     a total ranking, at 2.4k and 9.6k tuples.

#include <memory>
#include <string>
#include <utility>

#include "base/exec_context.h"
#include "bench_common.h"
#include "cqa/planner.h"

namespace prefrep::bench {
namespace {

const CqaPlannerOptions& ForcedEnumeration() {
  static const CqaPlannerOptions forced = [] {
    CqaPlannerOptions opts;
    opts.force_tier = CqaTier::kEnumeration;
    return opts;
  }();
  return forced;
}

// ----------------------------------------- tier 0: conflict-free bypass --

void BM_PlannerDispatch_ConflictFree_Planned(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 1), /*seed=*/11,
                               0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(1, 0)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kCommon, *query,
                                           CqaPlannerOptions(),
                                           &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kSingleRepair);
  state.counters["tuples"] = static_cast<double>(groups);
  state.SetLabel("planned: tier 0 single-repair");
}
BENCHMARK(BM_PlannerDispatch_ConflictFree_Planned)
    ->RangeMultiplier(8)
    ->Range(64, 32768)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_ConflictFree_ForcedEnum(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeKeyGroupsInstance(groups, 1), /*seed=*/11,
                               0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(1, 0)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kCommon, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["tuples"] = static_cast<double>(groups);
  state.SetLabel("forced: tier 2 enumeration");
}
BENCHMARK(BM_PlannerDispatch_ConflictFree_ForcedEnum)
    ->RangeMultiplier(8)
    ->Range(64, 32768)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------- tier 1: ground verdict on r_n --

void BM_PlannerDispatch_GroundVerdict_Planned(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query,
                                           CqaPlannerOptions(),
                                           &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kGroundFastPath);
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("planned: tier 1 conflict-graph prover");
}
BENCHMARK(BM_PlannerDispatch_GroundVerdict_Planned)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_GroundVerdict_ForcedEnum(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kAll, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("forced: tier 2 enumeration");
}
BENCHMARK(BM_PlannerDispatch_GroundVerdict_ForcedEnum)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

// --------------------- tier 1 via P3: preferred family, empty priority --

void BM_PlannerDispatch_EmptyPriorityCollapse_Planned(
    benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  CqaPlan executed;
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kGlobal, *query,
                                           CqaPlannerOptions(),
                                           &executed);
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    KeepAlive(executed.tier);
  }
  CHECK(executed.tier == CqaTier::kGroundFastPath);
  CHECK(executed.family_collapsed);
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("planned: G-Rep collapsed to Rep (P3)");
}
BENCHMARK(BM_PlannerDispatch_EmptyPriorityCollapse_Planned)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_PlannerDispatch_EmptyPriorityCollapse_ForcedEnum(
    benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BenchSetup setup = MakeSetup(MakeRnInstance(n), /*seed=*/3, 0.0);
  Priority empty = Priority::Empty(setup.problem->graph());
  std::unique_ptr<Query> query = MustParse("R(0, 0) or R(0, 1)");
  for (auto _ : state) {
    auto verdict = PlannedConsistentAnswer(*setup.problem, empty,
                                           RepairFamily::kGlobal, *query,
                                           ForcedEnumeration());
    CHECK(verdict.ok());
    CHECK(*verdict == CqaVerdict::kCertainlyTrue);
    benchmark::DoNotOptimize(*verdict);
  }
  state.counters["repair_space"] = setup.problem->CountRepairs().ToDouble();
  state.SetLabel("forced: tier 2 G-Rep enumeration");
}
BENCHMARK(BM_PlannerDispatch_EmptyPriorityCollapse_ForcedEnum)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

// ------------------------------ tier 2: observable components only --

// Runs one planned verdict per iteration and reports the component split
// of the last one.
void RunPrunedVerdict(benchmark::State& state, const RepairProblem& problem,
                      const Priority& priority, RepairFamily family,
                      const Query& query) {
  ExecutionStatsSnapshot stats;
  for (auto _ : state) {
    ExecutionContext context;
    CqaPlannerOptions options;
    options.parallel.context = &context;
    CqaPlan executed;
    auto verdict = PlannedConsistentAnswer(problem, priority, family, query,
                                           options, &executed);
    CHECK(verdict.ok()) << verdict.status().ToString();
    CHECK(executed.tier == CqaTier::kEnumeration);
    KeepAlive(*verdict);
    stats = context.stats().Snapshot();
  }
  state.counters["tuples"] = static_cast<double>(problem.tuple_count());
  state.counters["pruned"] = static_cast<double>(stats.components_pruned);
  state.counters["collapsed"] =
      static_cast<double>(stats.components_collapsed);
  state.counters["enumerated"] =
      static_cast<double>(stats.components_enumerated);
  state.counters["repairs"] = static_cast<double>(stats.repairs_examined);
}

constexpr RepairFamily kPreferredFamilies[] = {
    RepairFamily::kSemiGlobal, RepairFamily::kGlobal, RepairFamily::kCommon};

// Args: ranking density in percent, family (0 S-Rep, 1 G-Rep, 2 C-Rep).
void BM_PlannerDispatch_OneGroupPreferred_Planned(benchmark::State& state) {
  Rng rng(7);
  GeneratedInstance instance =
      MakeMultiRelationComponentsInstance(rng, 4, 60, 4, 8);
  auto problem = RepairProblem::Create(instance.db.get(), instance.fds);
  CHECK(problem.ok());
  Priority priority = RandomRankingPriority(
      rng, problem->graph(), static_cast<double>(state.range(0)) / 100.0);
  RepairFamily family = kPreferredFamilies[state.range(1)];
  RunPrunedVerdict(state, *problem, priority, family,
                   *MustParse("R0(1, 0, 0)"));
  state.SetLabel(std::string(RepairFamilyName(family)) + ", ranking density " +
                 std::to_string(state.range(0)) + "%");
}
BENCHMARK(BM_PlannerDispatch_OneGroupPreferred_Planned)
    ->ArgsProduct({{100, 90, 50}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// One relation R(K, V, W) with FD K -> V in groups of 8 tuples over 4
// V-classes, under a random total ranking.
void BM_PlannerDispatch_ScalingProbe_Planned(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  GeneratedInstance instance;
  instance.db = std::make_unique<Database>();
  auto schema = Schema::Create("R", {Attribute{"K", ValueType::kNumber},
                                     Attribute{"V", ValueType::kNumber},
                                     Attribute{"W", ValueType::kNumber}});
  CHECK(schema.ok());
  CHECK(instance.db->AddRelation(*schema).ok());
  for (int id = 0; id < tuples; ++id) {
    CHECK(instance.db
              ->Insert("R", Tuple::Of(Value::Number(id / 8),
                                      Value::Number(id % 4), Value::Number(id)))
              .ok());
  }
  auto fd = FunctionalDependency::CreateByName(*schema, {"K"}, {"V"});
  CHECK(fd.ok());
  instance.fds.push_back(*fd);
  BenchSetup setup = MakeSetup(std::move(instance), /*seed=*/17, 1.0);
  RunPrunedVerdict(state, *setup.problem, *setup.priority,
                   RepairFamily::kCommon, *MustParse("R(7, 0, 56)"));
  state.SetLabel("C-Rep, one group, total ranking");
}
BENCHMARK(BM_PlannerDispatch_ScalingProbe_Planned)
    ->Arg(2400)
    ->Arg(9600)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace prefrep::bench

BENCHMARK_MAIN();
