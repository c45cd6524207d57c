// Tests for src/cqa/planner: tier classification (pinned via
// ExplainPlan), the conflict-free and DNF-budget regressions, degenerate
// edge cases, and the randomized differential suites pinning every
// planner-chosen fast path — and tier 2's component pruning — against
// planner-forced enumeration.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "cqa/planner.h"
#include "query/normal_form.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

constexpr RepairFamily kAllFamilies[] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kGlobal, RepairFamily::kCommon};

// ------------------------------------------------------- tier pinning --

TEST(PlannerTierTest, ConflictFreeInstancePlansSingleRepair) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 1);  // consistent
  RepairProblem problem = MustProblem(inst);
  ASSERT_EQ(problem.graph().edge_count(), 0u);
  Priority empty = Priority::Empty(problem.graph());
  auto quantified = MustParse("exists x . R(x, 0)");
  for (RepairFamily family : kAllFamilies) {
    CqaPlan plan = ExplainPlan(problem, empty, family, *quantified,
                               CqaRequest::kVerdict);
    EXPECT_EQ(plan.tier, CqaTier::kSingleRepair) << RepairFamilyName(family);
    plan = ExplainPlan(problem, empty, family, *MustParse("R(x, y)"),
                       CqaRequest::kOpenAnswers);
    EXPECT_EQ(plan.tier, CqaTier::kSingleRepair) << RepairFamilyName(family);
  }
}

TEST(PlannerTierTest, GroundQueryUnderRepPlansFastPath) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("R(0, 0) or not R(1, 1)");
  CqaPlan plan =
      ExplainPlan(problem, empty, RepairFamily::kAll, *query,
                  CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
  EXPECT_FALSE(plan.family_collapsed);

  // Rep ignores the priority, so kAll stays on the fast path even under
  // a non-empty priority.
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  plan = ExplainPlan(problem, *ranked, RepairFamily::kAll, *query,
                     CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
}

TEST(PlannerTierTest, EmptyPriorityCollapsesEveryFamilyToRep) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("R(0, 0)");
  for (RepairFamily family : kAllFamilies) {
    CqaPlan plan =
        ExplainPlan(problem, empty, family, *query, CqaRequest::kVerdict);
    EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath) << RepairFamilyName(family);
    EXPECT_EQ(plan.effective_family, RepairFamily::kAll);
    EXPECT_EQ(plan.family_collapsed, family != RepairFamily::kAll);
  }
}

TEST(PlannerTierTest, PreferredFamilyUnderPriorityPlansEnumeration) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  CqaPlan plan = ExplainPlan(problem, *ranked, RepairFamily::kGlobal,
                             *MustParse("R(0, 0)"), CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  EXPECT_EQ(plan.effective_family, RepairFamily::kGlobal);
  EXPECT_FALSE(plan.family_collapsed);
}

TEST(PlannerTierTest, QueryShapeRouting) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  // Quantified closed query: no polynomial verdict.
  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                             *MustParse("exists x . R(x, 0)"),
                             CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  // Open quantifier-free negation-free query: monotone certification.
  plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                     *MustParse("R(x, y)"), CqaRequest::kOpenAnswers);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
  // Negation disables the monotone candidate argument.
  plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                     *MustParse("not R(x, 0)"), CqaRequest::kOpenAnswers);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
}

TEST(PlannerTierTest, PlanRendering) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kGlobal,
                             *MustParse("R(0, 0)"), CqaRequest::kVerdict);
  EXPECT_NE(plan.ToString().find("tier 1"), std::string::npos);
  EXPECT_NE(plan.ToString().find("ground-fast-path"), std::string::npos);
  EXPECT_NE(plan.reason.find("collapsed"), std::string::npos);
  EXPECT_EQ(CqaTierName(CqaTier::kSingleRepair), "single-repair");
  EXPECT_EQ(CqaTierName(CqaTier::kEnumeration), "enumeration");
}

// -------------------------------------------------------- stage seams --

TEST(PlannerSeamTest, PreparedAndPrecomputedPlanMatchThePlainCall) {
  // A caller that compiles and plans apart from executing passes both
  // seams; neither may change the answer or the plan that ran. One
  // verdict and one open query per tier.
  GeneratedInstance consistent = MakeKeyGroupsInstance(3, 1);
  GeneratedInstance rn = MakeRnInstance(3);
  const RepairProblem conflict_free = MustProblem(consistent);
  const RepairProblem conflicted = MustProblem(rn);
  std::vector<int64_t> ranks;
  for (int v = 0; v < conflicted.graph().vertex_count(); ++v) {
    ranks.push_back(v);
  }
  struct Case {
    const RepairProblem* problem;
    Priority priority;
    RepairFamily family;
    const char* closed;
    const char* open;
    CqaTier tier;
  };
  const Case cases[] = {
      {&conflict_free, Priority::Empty(conflict_free.graph()),
       RepairFamily::kAll, "exists x . R(x, 0)", "R(x, y)",
       CqaTier::kSingleRepair},
      {&conflicted, Priority::Empty(conflicted.graph()), RepairFamily::kAll,
       "R(0, 0) or R(1, 1)", "R(x, 0) or R(x, 1)", CqaTier::kGroundFastPath},
      {&conflicted, Priority::FromRanking(conflicted.graph(), ranks),
       RepairFamily::kSemiGlobal, "exists x . R(x, 0)", "R(x, y)",
       CqaTier::kEnumeration},
  };
  for (const Case& c : cases) {
    for (CqaRequest request :
         {CqaRequest::kVerdict, CqaRequest::kOpenAnswers}) {
      const std::string text =
          request == CqaRequest::kVerdict ? c.closed : c.open;
      auto query = MustParse(text);
      auto compiled = PreparedQuery::Compile(c.problem->db(), *query);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      const CqaPlan plan =
          ExplainPlan(*c.problem, c.priority, c.family, *query, request);
      EXPECT_EQ(plan.tier, c.tier) << text;
      CqaPlannerOptions seams;
      seams.prepared = &*compiled;
      seams.precomputed_plan = &plan;
      CqaPlan plain_ran;
      CqaPlan seam_ran;
      if (request == CqaRequest::kVerdict) {
        auto plain = PlannedConsistentAnswer(*c.problem, c.priority, c.family,
                                             *query, {}, &plain_ran);
        auto seamed = PlannedConsistentAnswer(*c.problem, c.priority,
                                              c.family, *query, seams,
                                              &seam_ran);
        ASSERT_TRUE(plain.ok() && seamed.ok()) << text;
        EXPECT_EQ(*plain, *seamed) << text;
      } else {
        auto plain = PlannedConsistentAnswers(*c.problem, c.priority,
                                              c.family, *query, {},
                                              &plain_ran);
        auto seamed = PlannedConsistentAnswers(*c.problem, c.priority,
                                               c.family, *query, seams,
                                               &seam_ran);
        ASSERT_TRUE(plain.ok() && seamed.ok()) << text;
        EXPECT_EQ(plain->variables, seamed->variables) << text;
        EXPECT_EQ(plain->rows, seamed->rows) << text;
      }
      EXPECT_EQ(seam_ran.tier, c.tier) << text;
      EXPECT_EQ(seam_ran.effective_family, plain_ran.effective_family);
      EXPECT_EQ(seam_ran.ToString(), plain_ran.ToString()) << text;
    }
  }
}

// ------------------------------- satellite 1: conflict-free regression --

TEST(PlannerRegressionTest, ConflictFreeShortCircuitNeverEnumerates) {
  // 2000 key groups of size 1: conflict-free, so tier 2 would pay a
  // 2000-component decomposition per call. The planner must answer with
  // one evaluation and report tier 0 as the executed plan.
  GeneratedInstance inst = MakeKeyGroupsInstance(2000, 1);
  RepairProblem problem = MustProblem(inst);
  ASSERT_EQ(problem.graph().edge_count(), 0u);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("forall x, y . (not R(x, y)) or R(x, y)");

  CqaPlan executed;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kCommon,
                                         *query, CqaPlannerOptions(), &executed);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
  EXPECT_EQ(executed.tier, CqaTier::kSingleRepair);

  // Bit-for-bit against the enumeration engine.
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto reference = PlannedConsistentAnswer(problem, empty,
                                           RepairFamily::kCommon, *query,
                                           forced, &executed);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
  EXPECT_EQ(*verdict, *reference);

  // Open answers short-circuit the same way.
  auto open = MustParse("R(x, y)");
  auto fast = PlannedConsistentAnswers(problem, empty, RepairFamily::kLocal,
                                       *open, CqaPlannerOptions(), &executed);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(executed.tier, CqaTier::kSingleRepair);
  auto slow = PlannedConsistentAnswers(problem, empty, RepairFamily::kLocal,
                                       *open, forced);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->variables, slow->variables);
  EXPECT_EQ(fast->rows, slow->rows);
}

// ------------------------------------ satellite 2: DNF budget fallback --

TEST(PlannerBudgetTest, BlownDnfBudgetFallsBackToEnumeration) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  // DNF of the negation has 2^3 = 8 disjuncts; cap at 4.
  auto query = MustParse(
      "(R(0, 0) and R(0, 1)) or (R(1, 0) and R(1, 1)) or "
      "(R(0, 0) and R(1, 1))");
  CqaPlannerOptions tiny;
  tiny.max_dnf_disjuncts = 4;

  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kAll, *query,
                             CqaRequest::kVerdict, tiny);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  EXPECT_NE(plan.reason.find("budget"), std::string::npos) << plan.reason;

  // Unforced: the planner answers anyway, via tier 2.
  CqaPlan executed;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *query, tiny, &executed);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);

  // The verdict matches both the default (fast-path) plan and forced
  // enumeration.
  auto roomy = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                       *query, CqaPlannerOptions(), &executed);
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath);
  EXPECT_EQ(*verdict, *roomy);

  // Forcing the fast path past the budget surfaces the exhaustion.
  CqaPlannerOptions forced_fast = tiny;
  forced_fast.force_tier = CqaTier::kGroundFastPath;
  auto exhausted = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                           *query, forced_fast);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlannerBudgetTest, LiteralBudgetCapsDnfConversion) {
  // 4 conjoined disjunctions of width 2: 16 disjuncts x 4 literals each
  // = 64 literals. A 32-literal budget must trip even though the
  // disjunct budget would admit the result.
  auto query = MustParse(
      "(R(0, 0) or R(0, 1)) and (R(1, 0) or R(1, 1)) and "
      "(R(2, 0) or R(2, 1)) and (R(3, 0) or R(3, 1))");
  auto full = QuantifierFreeDnf(*query, /*max_disjuncts=*/1024,
                                /*max_literals=*/1024);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 16u);
  auto capped = QuantifierFreeDnf(*query, /*max_disjuncts=*/1024,
                                  /*max_literals=*/32);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
}

// ----------------------------------------------- forced-tier contract --

TEST(PlannerForceTest, ForcedTiersValidateEligibility) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  auto ground = MustParse("R(0, 0)");

  CqaPlannerOptions force_single;
  force_single.force_tier = CqaTier::kSingleRepair;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *ground, force_single);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  CqaPlannerOptions force_fast;
  force_fast.force_tier = CqaTier::kGroundFastPath;
  verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                    *MustParse("exists x . R(x, 0)"),
                                    force_fast);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  // A preferred family under a real priority is not Rep-equivalent.
  verdict = PlannedConsistentAnswer(problem, *ranked, RepairFamily::kGlobal,
                                    *ground, force_fast);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  // But kAll under the same priority is.
  verdict = PlannedConsistentAnswer(problem, *ranked, RepairFamily::kAll,
                                    *ground, force_fast);
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
}

// --------------------------------------- satellite 3: degenerate cases --

TEST(PlannerEdgeCaseTest, EmptyDatabase) {
  GeneratedInstance inst = MakeRnInstance(0);
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;

  CqaPlan executed;
  for (const char* text : {"R(0, 0)", "not R(0, 0)", "exists x . R(x, 0)"}) {
    auto query = MustParse(text);
    auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, CqaPlannerOptions(), &executed);
    ASSERT_TRUE(fast.ok()) << text;
    EXPECT_EQ(executed.tier, CqaTier::kSingleRepair) << text;
    auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, forced);
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(*fast, *slow) << text;
  }
  auto open = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                       *MustParse("R(x, y)"));
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->rows.empty());
}

TEST(PlannerEdgeCaseTest, ConstantOnlyQueries) {
  GeneratedInstance rn = MakeRnInstance(2);  // conflicted
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;

  const std::pair<const char*, CqaVerdict> cases[] = {
      {"true", CqaVerdict::kCertainlyTrue},
      {"false", CqaVerdict::kCertainlyFalse},
      {"not false", CqaVerdict::kCertainlyTrue},
      {"true and not false", CqaVerdict::kCertainlyTrue},
  };
  for (const auto& [text, want] : cases) {
    auto query = MustParse(text);
    CqaPlan executed;
    auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, CqaPlannerOptions(), &executed);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    EXPECT_EQ(*fast, want) << text;
    EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath) << text;
    auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, forced);
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(*fast, *slow) << text;
  }

  // Zero-variable open answers: {()} iff the query is certain.
  for (const char* text : {"true", "not false", "false"}) {
    auto query = MustParse(text);
    auto fast = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                         *query);
    auto slow = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                         *query, forced);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(fast->variables, slow->variables) << text;
    EXPECT_EQ(fast->rows, slow->rows) << text;
  }
}

TEST(PlannerEdgeCaseTest, UnknownRelationFailsIdenticallyAcrossTiers) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto query = MustParse("S(0, 0)");

  auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                      *query);
  auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                      *query, forced);
  ASSERT_FALSE(fast.ok());
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(fast.status().code(), slow.status().code());

  auto fast_open = PlannedConsistentAnswers(problem, empty,
                                            RepairFamily::kAll, *query);
  auto slow_open = PlannedConsistentAnswers(problem, empty,
                                            RepairFamily::kAll, *query,
                                            forced);
  ASSERT_FALSE(fast_open.ok());
  ASSERT_FALSE(slow_open.ok());
  EXPECT_EQ(fast_open.status().code(), slow_open.status().code());
}

// ------------------------------------------------- aggregation planning --

TEST(PlannerAggregateTest, CountStarRoutesToComponentRange) {
  GeneratedInstance rn = MakeRnInstance(3);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlan executed;
  auto fast = PlannedAggregateRange(problem, empty, RepairFamily::kGlobal,
                                    "R", "", AggregateFunction::kCount,
                                    CqaPlannerOptions(),
                                    &executed);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath);
  EXPECT_TRUE(executed.family_collapsed);

  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto slow = PlannedAggregateRange(problem, empty, RepairFamily::kGlobal,
                                    "R", "", AggregateFunction::kCount,
                                    forced, &executed);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
  EXPECT_EQ(fast->lo, slow->lo);
  EXPECT_EQ(fast->hi, slow->hi);
  EXPECT_EQ(fast->empty_possible, slow->empty_possible);

  // SUM has no polynomial range: plans enumeration.
  auto sum = PlannedAggregateRange(problem, empty, RepairFamily::kAll, "R",
                                   "B", AggregateFunction::kSum,
                                   CqaPlannerOptions(),
                                   &executed);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
}

// -------------------------------- satellite 4: differential equivalence --

// Builds a random literal over R; `vars` (possibly empty) supplies the
// variable pool for open queries.
std::unique_ptr<Query> RandomAtom(Rng& rng, const Relation& rel, int arity,
                                  const std::vector<std::string>& vars) {
  std::vector<Term> terms;
  const Tuple* sample =
      rel.size() > 0
          ? &rel.tuple(static_cast<int>(rng.UniformInt(rel.size())))
          : nullptr;
  for (int i = 0; i < arity; ++i) {
    if (!vars.empty() && rng.Bernoulli(0.3)) {
      terms.push_back(
          Term::Var(vars[static_cast<size_t>(rng.UniformInt(vars.size()))]));
    } else if (sample != nullptr && rng.Bernoulli(0.7)) {
      terms.push_back(Term::Const(sample->values()[static_cast<size_t>(i)]));
    } else {
      terms.push_back(
          Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4))));
    }
  }
  return Query::Atom("R", std::move(terms));
}

std::unique_ptr<Query> RandomQuery(Rng& rng, const Relation& rel, int arity,
                                   const std::vector<std::string>& vars,
                                   bool allow_negation) {
  std::vector<std::unique_ptr<Query>> literals;
  int count = 1 + static_cast<int>(rng.UniformInt(3));
  for (int i = 0; i < count; ++i) {
    std::unique_ptr<Query> atom;
    if (!vars.empty() && rng.Bernoulli(0.2)) {
      // Comparison literal: exercises the non-atom leg of the DNF and
      // candidate-certification paths.
      atom = Query::Cmp(
          rng.Bernoulli(0.5) ? ComparisonOp::kLt : ComparisonOp::kNe,
          Term::Var(vars[static_cast<size_t>(rng.UniformInt(vars.size()))]),
          Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4))));
    } else {
      atom = RandomAtom(rng, rel, arity, vars);
    }
    literals.push_back(allow_negation && rng.Bernoulli(0.35)
                           ? Query::Not(std::move(atom))
                           : std::move(atom));
  }
  if (literals.size() == 1) return std::move(literals[0]);
  return rng.Bernoulli(0.5) ? Query::And(std::move(literals))
                            : Query::Or(std::move(literals));
}

TEST(PlannerDifferentialTest, PlannerMatchesForcedEnumeration) {
  // Deterministic by default; CI's sanitizer leg sweeps extra seeds.
  uint64_t seed = 20260808;
  if (const char* env = std::getenv("PLANNER_TEST_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  Rng rng(seed);
  int verdicts_compared = 0;
  int answer_sets_compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    const Relation& rel = *inst.db->relation("R").value();

    // Both priority kinds plus the empty priority, cycling per trial.
    Priority priority = [&]() {
      switch (trial % 3) {
        case 0:
          return Priority::Empty(problem.graph());
        case 1:
          return RandomRankingPriority(rng, problem.graph(), 0.7);
        default:
          return RandomDagPriority(rng, problem.graph(), 0.7);
      }
    }();
    RepairFamily family = kAllFamilies[trial % 5];

    CqaPlannerOptions forced;
    forced.force_tier = CqaTier::kEnumeration;

    for (int q = 0; q < 4; ++q) {
      // Shape class cycles: ground qf, open qf (negation-free and not),
      // and quantified/conjunctive closed.
      std::unique_ptr<Query> query;
      switch (q) {
        case 0:
          query = RandomQuery(rng, rel, 3, {}, /*allow_negation=*/true);
          break;
        case 1:
          query = RandomQuery(rng, rel, 3, {"x"}, /*allow_negation=*/false);
          break;
        case 2:
          query = RandomQuery(rng, rel, 3, {"x", "y"},
                              /*allow_negation=*/true);
          break;
        default: {
          auto body = RandomQuery(rng, rel, 3, {"x"},
                                  /*allow_negation=*/true);
          std::set<std::string> free = body->FreeVariables();
          if (free.empty()) {
            query = std::move(body);
          } else {
            std::vector<std::string> bound(free.begin(), free.end());
            query = rng.Bernoulli(0.5)
                        ? Query::Exists(std::move(bound), std::move(body))
                        : Query::ForAll(std::move(bound), std::move(body));
          }
          break;
        }
      }

      if (query->IsClosed()) {
        auto fast = PlannedConsistentAnswer(problem, priority, family, *query);
        auto slow = PlannedConsistentAnswer(problem, priority, family, *query,
                                            forced);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString() << " for "
                               << query->ToString();
        ASSERT_TRUE(slow.ok()) << slow.status().ToString();
        EXPECT_EQ(*fast, *slow)
            << "trial " << trial << " family " << RepairFamilyName(family)
            << " query " << query->ToString();
        ++verdicts_compared;
      }

      auto fast_open =
          PlannedConsistentAnswers(problem, priority, family, *query);
      auto slow_open = PlannedConsistentAnswers(problem, priority, family,
                                                *query, forced);
      ASSERT_TRUE(fast_open.ok())
          << fast_open.status().ToString() << " for " << query->ToString();
      ASSERT_TRUE(slow_open.ok()) << slow_open.status().ToString();
      EXPECT_EQ(fast_open->variables, slow_open->variables)
          << query->ToString();
      EXPECT_EQ(fast_open->rows, slow_open->rows)
          << "trial " << trial << " family " << RepairFamilyName(family)
          << " query " << query->ToString();
      ++answer_sets_compared;
    }

    // COUNT(*) aggregation rides the same differential.
    auto fast_count = PlannedAggregateRange(problem, priority, family, "R",
                                            "", AggregateFunction::kCount);
    auto slow_count =
        PlannedAggregateRange(problem, priority, family, "R", "",
                              AggregateFunction::kCount, forced);
    ASSERT_TRUE(fast_count.ok()) << fast_count.status().ToString();
    ASSERT_TRUE(slow_count.ok());
    EXPECT_EQ(fast_count->lo, slow_count->lo) << "trial " << trial;
    EXPECT_EQ(fast_count->hi, slow_count->hi) << "trial " << trial;
    EXPECT_EQ(fast_count->empty_possible, slow_count->empty_possible);
  }
  EXPECT_EQ(answer_sets_compared, 160);
  EXPECT_GE(verdicts_compared, 40);
}

// ------------------------- pruned tier 2 against unpruned enumeration --

// Seed for the randomized suites below; CI's sanitizer leg sweeps it.
uint64_t DifferentialSeed(uint64_t fallback) {
  if (const char* env = std::getenv("PLANNER_TEST_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

// Two relations R0, R1 (K, V, W) with FD K -> V in key groups of 1-4
// tuples (size-1 groups are isolated tuples), plus an empty relation E,
// whose SUM, MIN and MAX are undefined in every repair.
GeneratedInstance MakePruningInstance(Rng& rng) {
  GeneratedInstance inst = MakeMultiRelationComponentsInstance(
      rng, /*relations=*/2, /*groups_per_relation=*/3, /*min_size=*/1,
      /*max_size=*/4);
  auto schema = Schema::Create("E", {Attribute{"K", ValueType::kNumber},
                                     Attribute{"V", ValueType::kNumber},
                                     Attribute{"W", ValueType::kNumber}});
  CHECK(schema.ok());
  CHECK(inst.db->AddRelation(*schema).ok());
  return inst;
}

// A small numeric constant: most instance values fall in [0, 4).
Term SmallConstant(Rng& rng) {
  return Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4)));
}

// Random formulas over R0/R1 with variables from {x, y, z}: atoms whose
// terms mix variables, constants copied from a stored tuple and small
// numbers; `x = c` conjuncts next to the atoms they pin; equalities under
// `or` and `not`, which must pin nothing; and quantifiers that rebind a
// pinned name.
class PruningQueryGenerator {
 public:
  PruningQueryGenerator(Rng& rng, const Database& db) : rng_(rng), db_(db) {}

  std::unique_ptr<Query> Formula(int depth) {
    if (depth <= 0) return Leaf();
    switch (rng_.UniformInt(6)) {
      case 0:
        return Leaf();
      case 1: {  // a conjunction with a pinning equality among its conjuncts
        std::string pinned = Variable();
        std::vector<std::unique_ptr<Query>> parts;
        parts.push_back(Formula(depth - 1));
        parts.push_back(Equality(pinned));
        if (rng_.Bernoulli(0.4)) {
          // A conjunct that rebinds the pinned name.
          parts.push_back(Quantified({pinned}, depth - 1));
        } else if (rng_.Bernoulli(0.5)) {
          parts.push_back(Formula(depth - 1));
        }
        rng_.Shuffle(parts);
        return Query::And(std::move(parts));
      }
      case 2: {  // equalities under `or` next to atoms
        std::vector<std::unique_ptr<Query>> parts;
        parts.push_back(Formula(depth - 1));
        parts.push_back(rng_.Bernoulli(0.6) ? Equality(Variable())
                                            : Formula(depth - 1));
        return Query::Or(std::move(parts));
      }
      case 3:  // equality or atom under `not`
        return Query::Not(rng_.Bernoulli(0.4) ? Equality(Variable())
                                              : Formula(depth - 1));
      default: {  // a quantifier, possibly rebinding a name pinned outside
        std::vector<std::string> bound = {Variable()};
        if (rng_.Bernoulli(0.4)) {
          std::string other = Variable();
          if (other != bound[0]) bound.push_back(other);
        }
        return Quantified(std::move(bound), depth - 1);
      }
    }
  }

  std::string Variable() {
    static const char* const kNames[] = {"x", "y", "z"};
    return kNames[rng_.UniformInt(3)];
  }

 private:
  std::unique_ptr<Query> Quantified(std::vector<std::string> bound,
                                    int depth) {
    auto body = Formula(depth);
    return rng_.Bernoulli(0.6) ? Query::Exists(std::move(bound), std::move(body))
                               : Query::ForAll(std::move(bound), std::move(body));
  }

  std::unique_ptr<Query> Leaf() {
    if (rng_.Bernoulli(0.2)) return Equality(Variable());
    int r = static_cast<int>(rng_.UniformInt(2));
    const Relation& rel = db_.relations()[r];
    const Tuple* sample =
        rel.size() > 0 ? &rel.tuple(static_cast<int>(rng_.UniformInt(rel.size())))
                       : nullptr;
    std::vector<Term> terms;
    for (int i = 0; i < 3; ++i) {
      if (rng_.Bernoulli(0.55)) {
        terms.push_back(Term::Var(Variable()));
      } else if (sample != nullptr && rng_.Bernoulli(0.8)) {
        terms.push_back(Term::Const(sample->value(i)));
      } else {
        terms.push_back(SmallConstant(rng_));
      }
    }
    return Query::Atom(rel.schema().relation_name(), std::move(terms));
  }

  std::unique_ptr<Query> Equality(const std::string& variable) {
    Term var = Term::Var(variable);
    Term value = SmallConstant(rng_);
    return rng_.Bernoulli(0.5)
               ? Query::Cmp(ComparisonOp::kEq, std::move(var), std::move(value))
               : Query::Cmp(ComparisonOp::kEq, std::move(value), std::move(var));
  }

  Rng& rng_;
  const Database& db_;
};

Priority PruningPriority(Rng& rng, const ConflictGraph& graph, int kind) {
  switch (kind) {
    case 0:
      return Priority::Empty(graph);
    case 1:
      return RandomRankingPriority(rng, graph, 1.0);  // total
    case 2:
      return RandomRankingPriority(rng, graph, 0.6);  // partial ranking
    default:
      return RandomDagPriority(rng, graph, 0.6);
  }
}

void ExpectSameRange(const Result<AggregateRange>& pruned,
                     const Result<AggregateRange>& reference,
                     const std::string& what) {
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString() << " " << what;
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << what;
  EXPECT_EQ(pruned->has_value, reference->has_value) << what;
  EXPECT_EQ(pruned->empty_possible, reference->empty_possible) << what;
  if (pruned->has_value && reference->has_value) {
    EXPECT_EQ(pruned->lo, reference->lo) << what;
    EXPECT_EQ(pruned->hi, reference->hi) << what;
  }
}

TEST(PlannerPruningDifferentialTest, PrunedTier2MatchesUnprunedEnumeration) {
  Rng rng(DifferentialSeed(20261019));
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  int verdicts = 0;
  int answer_sets = 0;
  int pruned_runs = 0;
  for (int trial = 0; trial < 100; ++trial) {
    GeneratedInstance inst = MakePruningInstance(rng);
    RepairProblem problem = MustProblem(inst);
    Priority priority = PruningPriority(rng, problem.graph(), trial % 4);
    RepairFamily family = kAllFamilies[(trial / 4) % 5];
    PruningQueryGenerator generator(rng, *inst.db);
    for (int q = 0; q < 8; ++q) {
      std::unique_ptr<Query> query = generator.Formula(3);
      const std::string what = "trial " + std::to_string(trial) + " " +
                               std::string(RepairFamilyName(family)) + " " +
                               query->ToString();
      if (q % 2 == 0) {
        // Close it: quantify the free variables.
        std::set<std::string> free = query->FreeVariables();
        if (!free.empty()) {
          std::vector<std::string> bound(free.begin(), free.end());
          query = rng.Bernoulli(0.5)
                      ? Query::Exists(std::move(bound), std::move(query))
                      : Query::ForAll(std::move(bound), std::move(query));
        }
        ExecutionContext context;
        CqaPlannerOptions planned;
        planned.parallel.context = &context;
        CqaPlan plan;
        auto fast = PlannedConsistentAnswer(problem, priority, family, *query,
                                            planned, &plan);
        auto slow = PlannedConsistentAnswer(problem, priority, family, *query,
                                            forced);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString() << " " << what;
        ASSERT_TRUE(slow.ok()) << slow.status().ToString() << " " << what;
        EXPECT_EQ(*fast, *slow) << what;
        if (plan.tier == CqaTier::kEnumeration &&
            context.stats().Snapshot().components_pruned > 0) {
          ++pruned_runs;
        }
        ++verdicts;
        continue;
      }
      auto fast = PlannedConsistentAnswers(problem, priority, family, *query);
      auto slow =
          PlannedConsistentAnswers(problem, priority, family, *query, forced);
      ASSERT_TRUE(fast.ok()) << fast.status().ToString() << " " << what;
      ASSERT_TRUE(slow.ok()) << slow.status().ToString() << " " << what;
      EXPECT_EQ(fast->variables, slow->variables) << what;
      EXPECT_EQ(fast->rows, slow->rows) << what;
      ++answer_sets;
    }
    // Aggregate ranges: per-component folds (and AVG's pruned product)
    // against the whole product, including the empty relation E.
    for (const char* relation : {"R0", "R1", "E"}) {
      for (AggregateFunction fn :
           {AggregateFunction::kCount, AggregateFunction::kSum,
            AggregateFunction::kMin, AggregateFunction::kMax,
            AggregateFunction::kAvg}) {
        const char* attribute = trial % 2 == 0 ? "V" : "W";
        ExpectSameRange(
            PlannedAggregateRange(problem, priority, family, relation,
                                  attribute, fn),
            PlannedAggregateRange(problem, priority, family, relation,
                                  attribute, fn, forced),
            "trial " + std::to_string(trial) + " " +
                std::string(AggregateFunctionName(fn)) + "(" + relation +
                ") under " + std::string(RepairFamilyName(family)));
      }
    }
  }
  EXPECT_EQ(verdicts, 400);
  EXPECT_EQ(answer_sets, 400);
  EXPECT_GT(pruned_runs, 0);
}

TEST(PlannerPruningTest, ObservableComponentsFollowPinsAndScopes) {
  // R(K, V) with FD K -> V: key groups 0..3 of two conflicting tuples
  // each are components 0..3.
  GeneratedInstance inst = MakeKeyGroupsInstance(4, 2);
  RepairProblem problem = MustProblem(inst);
  ASSERT_EQ(problem.decomposition().components().size(), 4u);
  auto observable = [&](std::string_view text) {
    return ObservableComponents(problem, *MustParse(text));
  };
  using V = std::vector<int>;
  EXPECT_EQ(observable("R(1, 0)"), (V{1}));
  EXPECT_EQ(observable("R(7, 0)"), (V{}));
  EXPECT_EQ(observable("exists v . R(2, v)"), (V{2}));
  EXPECT_EQ(observable("exists k, v . R(k, v) and k = 3"), (V{3}));
  EXPECT_EQ(observable("exists k, v . (R(k, v) and (k = 1 and v = 0))"),
            (V{1}));
  // Pins under `or` and `not` narrow nothing.
  EXPECT_EQ(observable("exists k, v . R(k, v) and (k = 1 or k = 2)"),
            (V{0, 1, 2, 3}));
  EXPECT_EQ(observable("exists k, v . R(k, v) and not k = 1"),
            (V{0, 1, 2, 3}));
  // A pin still narrows an atom under `not` or `or` below the `and`.
  EXPECT_EQ(observable("exists k . k = 0 and not (exists v . R(k, v))"),
            (V{0}));
  // A quantifier rebinding the pinned name lifts the pin.
  EXPECT_EQ(observable("exists k . k = 0 and (exists k, v . R(k, v))"),
            (V{0, 1, 2, 3}));
  // A query with no atom observes nothing.
  EXPECT_EQ(observable("1 = 1"), (V{}));
}

TEST(PlannerPruningTest, StatsReportTheComponentSplit) {
  // Four key groups under a ranking that orients only group 0's edge:
  // a query on groups 0 and 1 collapses group 0, enumerates group 1 and
  // prunes the other two.
  GeneratedInstance inst = MakeKeyGroupsInstance(4, 2);
  RepairProblem problem = MustProblem(inst);
  auto priority = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(priority.ok()) << priority.status().ToString();
  ExecutionContext context;
  CqaPlannerOptions options;
  options.parallel.context = &context;
  auto verdict = PlannedConsistentAnswer(problem, *priority,
                                         RepairFamily::kCommon,
                                         *MustParse("R(0, 0) and R(1, 0)"),
                                         options);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ExecutionStatsSnapshot stats = context.stats().Snapshot();
  EXPECT_EQ(stats.components_pruned, 2u);
  EXPECT_EQ(stats.components_collapsed, 1u);
  EXPECT_EQ(stats.components_enumerated, 1u);
  EXPECT_EQ(stats.repairs_examined, 2u);
  // Explain reports the same split without executing.
  ComponentSplitCounts split =
      ExplainComponentSplit(problem, *priority, RepairFamily::kCommon,
                            *MustParse("R(0, 0) and R(1, 0)"));
  EXPECT_EQ(split.ToString(),
            "components: 2 pruned, 1 collapsed, 1 enumerated");
  // L-Rep is not categorical: nothing collapses.
  EXPECT_EQ(ExplainComponentSplit(problem, *priority, RepairFamily::kLocal,
                                  *MustParse("R(0, 0) and R(1, 0)"))
                .collapsed,
            0u);
  // Forced enumeration is the reference: it neither prunes nor collapses,
  // so the differentials above compare the collapse against a search.
  ExecutionContext forced_context;
  CqaPlannerOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  forced.parallel.context = &forced_context;
  auto reference = PlannedConsistentAnswer(problem, *priority,
                                           RepairFamily::kCommon,
                                           *MustParse("R(0, 0) and R(1, 0)"),
                                           forced);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(*reference, *verdict);
  ExecutionStatsSnapshot forced_stats = forced_context.stats().Snapshot();
  EXPECT_EQ(forced_stats.components_pruned, 0u);
  EXPECT_EQ(forced_stats.components_collapsed, 0u);
  EXPECT_EQ(forced_stats.components_enumerated, 4u);
}

}  // namespace
}  // namespace prefrep
