// Unit tests for src/priority: priority validation (Definition 2),
// extension/totality, ranking-derived priorities and the winnow operator.

#include <gtest/gtest.h>

#include "priority/priority.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

ConflictGraph Path(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return ConflictGraph(n, edges);
}

TEST(PriorityTest, EmptyPriority) {
  ConflictGraph g = Path(3);
  Priority p = Priority::Empty(g);
  EXPECT_EQ(p.arc_count(), 0);
  EXPECT_FALSE(p.Dominates(0, 1));
  EXPECT_FALSE(p.IsTotalFor(g));
}

TEST(PriorityTest, CreateValid) {
  ConflictGraph g = Path(3);
  auto p = Priority::Create(g, {{0, 1}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->Dominates(0, 1));
  EXPECT_TRUE(p->Dominates(2, 1));
  EXPECT_FALSE(p->Dominates(1, 0));
  EXPECT_EQ(p->DominatorsOf(1).ToVector(), (std::vector<int>{0, 2}));
  EXPECT_EQ(p->DominatedBy(0).ToVector(), (std::vector<int>{1}));
}

TEST(PriorityTest, CreateDeduplicatesArcs) {
  ConflictGraph g = Path(3);
  auto p = Priority::Create(g, {{0, 1}, {0, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->arc_count(), 1);
}

TEST(PriorityTest, RejectsNonConflictingPair) {
  // Definition 2: the priority is defined only on conflicting tuples.
  ConflictGraph g = Path(3);
  auto p = Priority::Create(g, {{0, 2}});
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST(PriorityTest, RejectsBothDirections) {
  ConflictGraph g = Path(3);
  EXPECT_FALSE(Priority::Create(g, {{0, 1}, {1, 0}}).ok());
}

TEST(PriorityTest, RejectsBothDirectionsInsideALargeArcList) {
  // A 2000-vertex path oriented left to right, given in reverse order,
  // with one edge in the middle also oriented right to left: the reverse
  // pair sits far from its twin in the caller's order and deep inside
  // the sorted list.
  ConflictGraph g = Path(2000);
  std::vector<std::pair<int, int>> arcs;
  for (int i = 1998; i >= 0; --i) arcs.emplace_back(i, i + 1);
  ASSERT_TRUE(Priority::Create(g, arcs).ok());
  arcs.insert(arcs.begin() + 700, {1234, 1233});
  auto p = Priority::Create(g, arcs);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().ToString().find("both directions"), std::string::npos)
      << p.status().ToString();
}

TEST(PriorityTest, RejectsCyclicRelation) {
  // Triangle oriented cyclically: 0>1, 1>2, 2>0.
  ConflictGraph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(Priority::Create(g, {{0, 1}, {1, 2}, {2, 0}}).ok());
  // Acyclic orientation of the same triangle is fine.
  EXPECT_TRUE(Priority::Create(g, {{0, 1}, {1, 2}, {0, 2}}).ok());
}

TEST(PriorityTest, RejectsOutOfRange) {
  ConflictGraph g = Path(3);
  EXPECT_FALSE(Priority::Create(g, {{0, 7}}).ok());
}

TEST(PriorityTest, FromBinaryRelationFiltersNonConflicts) {
  // §2.2: an arbitrary acyclic relation is used only on conflicting pairs.
  ConflictGraph g = Path(3);
  auto p = Priority::FromBinaryRelation(g, {{0, 1}, {0, 2}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->arc_count(), 2);  // (0,2) dropped: not a conflict
  EXPECT_TRUE(p->Dominates(0, 1));
  EXPECT_TRUE(p->Dominates(2, 1));
}

TEST(PriorityTest, FromBinaryRelationStillRejectsCycles) {
  ConflictGraph g = Path(3);
  // Cycle through a non-conflicting pair is still a cyclic relation.
  EXPECT_FALSE(
      Priority::FromBinaryRelation(g, {{0, 1}, {1, 2}, {2, 0}}).ok());
}

TEST(PriorityTest, TotalityDetection) {
  ConflictGraph g = Path(3);
  auto partial = Priority::Create(g, {{0, 1}});
  EXPECT_FALSE(partial->IsTotalFor(g));
  auto total = Priority::Create(g, {{0, 1}, {1, 2}});
  EXPECT_TRUE(total->IsTotalFor(g));
}

TEST(PriorityTest, ExtensionRelation) {
  ConflictGraph g = Path(3);
  Priority base = *Priority::Create(g, {{0, 1}});
  auto extended = base.Extend(g, {{2, 1}});
  ASSERT_TRUE(extended.ok());
  EXPECT_TRUE(base.IsExtendedBy(*extended));
  EXPECT_FALSE(extended->IsExtendedBy(base));
  // Every priority extends itself and the empty priority.
  EXPECT_TRUE(base.IsExtendedBy(base));
  EXPECT_TRUE(Priority::Empty(g).IsExtendedBy(base));
}

TEST(PriorityTest, ExtendRejectsReversal) {
  ConflictGraph g = Path(3);
  Priority base = *Priority::Create(g, {{0, 1}});
  EXPECT_FALSE(base.Extend(g, {{1, 0}}).ok());
}

TEST(PriorityTest, FromRankingOrientsTowardLowerRank) {
  ConflictGraph g = Path(3);
  // ranks: t0=5, t1=1, t2=3; higher rank dominates.
  Priority p = Priority::FromRanking(g, {5, 1, 3});
  EXPECT_TRUE(p.Dominates(0, 1));
  EXPECT_TRUE(p.Dominates(2, 1));
  EXPECT_TRUE(p.IsTotalFor(g));
}

TEST(PriorityTest, FromRankingLeavesTiesUnoriented) {
  ConflictGraph g = Path(3);
  Priority p = Priority::FromRanking(g, {5, 5, 3});
  EXPECT_FALSE(p.Dominates(0, 1));
  EXPECT_FALSE(p.Dominates(1, 0));
  EXPECT_TRUE(p.Dominates(1, 2));
}

TEST(PriorityTest, FromRankingLowerWins) {
  ConflictGraph g = Path(3);
  // E.g. "older timestamp wins": lower rank dominates.
  Priority p = Priority::FromRanking(g, {5, 1, 3}, /*higher_wins=*/false);
  EXPECT_TRUE(p.Dominates(1, 0));
  EXPECT_TRUE(p.Dominates(1, 2));
}

TEST(PriorityTest, ToString) {
  ConflictGraph g = Path(3);
  Priority p = *Priority::Create(g, {{0, 1}, {2, 1}});
  EXPECT_EQ(p.ToString(), "{0≻1, 2≻1}");
}

// ------------------------------------------------------------------ winnow --

TEST(WinnowTest, UndominatedSurvive) {
  ConflictGraph g = Path(3);
  Priority p = *Priority::Create(g, {{0, 1}, {1, 2}});
  DynamicBitset all = DynamicBitset::AllSet(3);
  EXPECT_EQ(Winnow(p, all).ToVector(), (std::vector<int>{0}));
}

TEST(WinnowTest, DominationOnlyCountsInsideTheSet) {
  ConflictGraph g = Path(3);
  Priority p = *Priority::Create(g, {{0, 1}, {1, 2}});
  // Without tuple 0, tuple 1 is no longer dominated.
  DynamicBitset sub = DynamicBitset::FromIndices(3, {1, 2});
  EXPECT_EQ(Winnow(p, sub).ToVector(), (std::vector<int>{1}));
}

TEST(WinnowTest, EmptyPriorityKeepsEverything) {
  ConflictGraph g = Path(4);
  Priority p = Priority::Empty(g);
  DynamicBitset all = DynamicBitset::AllSet(4);
  EXPECT_EQ(Winnow(p, all), all);
}

TEST(WinnowTest, EmptySetYieldsEmptyWinnow) {
  ConflictGraph g = Path(3);
  Priority p = *Priority::Create(g, {{0, 1}});
  EXPECT_TRUE(Winnow(p, DynamicBitset(3)).None());
}

TEST(WinnowTest, NonEmptySetHasNonEmptyWinnow) {
  // Acyclicity of ≻ guarantees an undominated element in any nonempty set.
  GeneratedInstance inst = MakeCycleInstance(4);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Priority p = RandomDagPriority(rng, problem->graph(), 0.8);
    DynamicBitset set(problem->tuple_count());
    for (int i = 0; i < problem->tuple_count(); ++i) {
      if (rng.Bernoulli(0.5)) set.Set(i);
    }
    if (set.None()) continue;
    EXPECT_TRUE(Winnow(p, set).Any());
  }
}

}  // namespace
}  // namespace prefrep
