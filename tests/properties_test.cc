// Randomized property sweeps verifying the paper's axioms and
// propositions across all workload families:
//
//   P1 non-emptiness        (Props. 2, 3, 4, 6)
//   P2 monotonicity         (L, S, G; the paper does not claim it for C)
//   P3 non-discrimination   (L, S; also holds for G and C via Prop. 7)
//   P4 categoricity         (G, C; fails for L — Example 8; and, erratum:
//                            *holds* for S, see DESIGN.md)
//   Containment chain       C ⊆ G ⊆ S ⊆ L ⊆ Rep
//   Prop. 3                 one key dependency: L = S
//   Prop. 4                 one FD: G = S
//   Prop. 1 / Prop. 7       Algorithm 1 outputs = C-Rep ⊆ G-Rep
//
// Parameterized over workload classes and priority densities.

#include <gtest/gtest.h>

#include <set>

#include "constraints/fd_theory.h"
#include "core/algorithm1.h"
#include "core/families.h"
#include "core/optimality.h"
#include "core/properties.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

enum class WorkloadClass { kKeyGroups, kDuplicates, kChain, kCycle, kRandom };

std::string WorkloadName(WorkloadClass w) {
  switch (w) {
    case WorkloadClass::kKeyGroups:
      return "KeyGroups";
    case WorkloadClass::kDuplicates:
      return "Duplicates";
    case WorkloadClass::kChain:
      return "Chain";
    case WorkloadClass::kCycle:
      return "Cycle";
    case WorkloadClass::kRandom:
      return "Random";
  }
  return "?";
}

GeneratedInstance MakeWorkload(WorkloadClass w, Rng& rng) {
  switch (w) {
    case WorkloadClass::kKeyGroups:
      return MakeKeyGroupsInstance(3, 3);
    case WorkloadClass::kDuplicates:
      return MakeDuplicatesInstance(2, 2, 2);
    case WorkloadClass::kChain:
      return MakeChainInstance(7);
    case WorkloadClass::kCycle:
      return MakeCycleInstance(3);
    case WorkloadClass::kRandom:
      return MakeRandomInstance(rng, 12, 3, 3, 2);
  }
  return MakeRnInstance(2);
}

class PropertySweep
    : public ::testing::TestWithParam<std::tuple<WorkloadClass, int>> {
 protected:
  WorkloadClass workload() const { return std::get<0>(GetParam()); }
  // Trial index doubles as the RNG seed offset.
  uint64_t seed() const { return 1000 + std::get<1>(GetParam()); }
};

TEST_P(PropertySweep, AxiomsHoldPerPaperClaims) {
  Rng rng(seed());
  GeneratedInstance inst = MakeWorkload(workload(), rng);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  Priority priority = RandomDagPriority(rng, g, rng.UniformDouble());

  // P1 for every family (C-Rep nonempty by Prop. 7: Algorithm 1 always
  // terminates with a repair).
  for (RepairFamily family : kAllFamilies) {
    EXPECT_TRUE(*SatisfiesNonEmptiness(g, priority, family))
        << RepairFamilyName(family) << " on " << WorkloadName(workload());
  }

  // P3 for L and S per Props. 2-3; G and C also pass (G: with no arcs ≪
  // never strictly holds; C: every repair is an Algorithm 1 run).
  for (RepairFamily family :
       {RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
        RepairFamily::kCommon}) {
    EXPECT_TRUE(*SatisfiesNonDiscrimination(g, family))
        << RepairFamilyName(family);
  }

  // Containment chain C ⊆ G ⊆ S ⊆ L ⊆ Rep (Props. 3, 4, 6).
  EXPECT_TRUE(*FamilyContainedIn(g, priority, RepairFamily::kCommon,
                                 RepairFamily::kGlobal));
  EXPECT_TRUE(*FamilyContainedIn(g, priority, RepairFamily::kGlobal,
                                 RepairFamily::kSemiGlobal));
  EXPECT_TRUE(*FamilyContainedIn(g, priority, RepairFamily::kSemiGlobal,
                                 RepairFamily::kLocal));
  EXPECT_TRUE(*FamilyContainedIn(g, priority, RepairFamily::kLocal,
                                 RepairFamily::kAll));
}

TEST_P(PropertySweep, MonotonicityUnderExtension) {
  Rng rng(seed() * 31 + 7);
  GeneratedInstance inst = MakeWorkload(workload(), rng);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();

  // Build an extension pair by re-orienting with the same global ranking
  // at two densities: every arc of the sparse priority appears in the
  // dense one.
  std::vector<int> perm = rng.Permutation(g.vertex_count());
  std::vector<std::pair<int, int>> weak_arcs, strong_arcs;
  for (auto [u, v] : g.edges()) {
    auto arc = perm[u] > perm[v] ? std::make_pair(u, v)
                                 : std::make_pair(v, u);
    double coin = rng.UniformDouble();
    if (coin < 0.4) weak_arcs.push_back(arc);
    if (coin < 0.8) strong_arcs.push_back(arc);
  }
  // weak ⊆ strong by construction.
  auto weak = Priority::Create(g, weak_arcs);
  auto strong = Priority::Create(g, strong_arcs);
  ASSERT_TRUE(weak.ok() && strong.ok());
  ASSERT_TRUE(weak->IsExtendedBy(*strong));

  for (RepairFamily family : {RepairFamily::kLocal, RepairFamily::kSemiGlobal,
                              RepairFamily::kGlobal}) {
    EXPECT_TRUE(*SatisfiesMonotonicityFor(g, *weak, *strong, family))
        << RepairFamilyName(family) << " on " << WorkloadName(workload());
  }
}

TEST_P(PropertySweep, CategoricityUnderTotalPriorities) {
  Rng rng(seed() * 17 + 3);
  GeneratedInstance inst = MakeWorkload(workload(), rng);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  Priority total = RandomRankingPriority(rng, g, 1.0);
  ASSERT_TRUE(total.IsTotalFor(g));

  // P4 claimed by the paper for G (Prop. 4) and C (Prop. 6).
  EXPECT_TRUE(*SatisfiesCategoricityFor(g, total, RepairFamily::kGlobal));
  EXPECT_TRUE(*SatisfiesCategoricityFor(g, total, RepairFamily::kCommon));
  // Erratum: P4 also holds for S-Rep (the paper's Example 9 claims
  // otherwise, but its instance is internally inconsistent; see DESIGN.md
  // for the proof that S-Rep(total) = {Algorithm 1 result}).
  EXPECT_TRUE(
      *SatisfiesCategoricityFor(g, total, RepairFamily::kSemiGlobal));

  // The unique S/G/C repair is the Algorithm 1 clean database (Prop. 1).
  // Brute force: every repair is tested for membership directly, so
  // neither the per-component search nor the collapse to Algorithm 1's
  // output (which PreferredRepairs takes under a total priority) is
  // involved.
  auto all = problem->AllRepairs();
  ASSERT_TRUE(all.ok());
  DynamicBitset clean = CleanDatabaseTotal(g, total);
  for (RepairFamily family : {RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
                              RepairFamily::kCommon}) {
    std::vector<DynamicBitset> members;
    for (const DynamicBitset& repair : *all) {
      if (IsPreferredRepair(g, total, family, repair)) {
        members.push_back(repair);
      }
    }
    ASSERT_EQ(members.size(), 1u) << RepairFamilyName(family);
    EXPECT_EQ(members[0], clean) << RepairFamilyName(family);
    auto repairs = PreferredRepairs(g, total, family);
    ASSERT_TRUE(repairs.ok());
    EXPECT_EQ(*repairs, members) << RepairFamilyName(family);
  }
}

TEST_P(PropertySweep, Algorithm1OutputsAreExactlyCommonRepairs) {
  Rng rng(seed() * 13 + 11);
  GeneratedInstance inst = MakeWorkload(workload(), rng);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  Priority priority = RandomDagPriority(rng, g, 0.5);

  auto common = PreferredRepairs(g, priority, RepairFamily::kCommon);
  ASSERT_TRUE(common.ok());
  std::set<DynamicBitset> common_set(common->begin(), common->end());
  // Sampled runs of Algorithm 1 land in C-Rep...
  for (int run = 0; run < 10; ++run) {
    DynamicBitset out =
        CleanDatabase(g, priority, rng.Permutation(g.vertex_count()));
    EXPECT_TRUE(common_set.contains(out));
    // ... and are globally optimal (Thm. 1 / Prop. 6).
    EXPECT_TRUE(IsGloballyOptimal(g, priority, out));
  }
}

TEST_P(PropertySweep, CoincidencePropositions) {
  Rng rng(seed() * 7 + 29);
  GeneratedInstance inst = MakeWorkload(workload(), rng);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  const ConflictGraph& g = problem->graph();
  const Schema& schema = inst.db->relations()[0].schema();
  Priority priority = RandomDagPriority(rng, g, 0.7);

  auto family = [&](RepairFamily f) {
    auto repairs = PreferredRepairs(g, priority, f);
    CHECK(repairs.ok());
    return std::set<DynamicBitset>(repairs->begin(), repairs->end());
  };

  if (IsSingleKeyDependency(schema, inst.fds)) {
    // Prop. 3: one key dependency -> L-Rep == S-Rep.
    EXPECT_EQ(family(RepairFamily::kLocal), family(RepairFamily::kSemiGlobal))
        << WorkloadName(workload());
  }
  if (inst.fds.size() == 1) {
    // Prop. 4: one FD -> G-Rep == S-Rep.
    EXPECT_EQ(family(RepairFamily::kGlobal),
              family(RepairFamily::kSemiGlobal))
        << WorkloadName(workload());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PropertySweep,
    ::testing::Combine(::testing::Values(WorkloadClass::kKeyGroups,
                                         WorkloadClass::kDuplicates,
                                         WorkloadClass::kChain,
                                         WorkloadClass::kCycle,
                                         WorkloadClass::kRandom),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<WorkloadClass, int>>& param) {
      return WorkloadName(std::get<0>(param.param)) + "_trial" +
             std::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace prefrep
