// CQA planner: routes every consistent-query-answering call to the
// cheapest sound algorithm, falling back to the sharded enumeration
// engine when no shortcut applies.
//
// The classifier looks at four inputs — query shape (query/ast.h's
// QueryShape), repair family, priority shape, and instance shape — and
// picks a tier:
//
//   Tier 0, kSingleRepair: the database is conflict-free, so its unique
//     repair is the database itself for *every* family and priority.
//     CQA degenerates to one plain evaluation: no component
//     decomposition, no materialization, no product walk.
//   Tier 1, kGroundFastPath: the plan is Rep-equivalent — the requested
//     family is kAll, or the priority is empty and P3 collapses any
//     family to Rep (core/families.h EffectiveFamily) — and the query
//     fits a polynomial engine: closed ground quantifier-free queries go
//     to GroundConsistentVerdict (the paper's Fig. 5 first row),
//     quantifier-free negation-free open queries to
//     GroundConsistentOpenAnswers, and COUNT(*) aggregation to
//     CountStarRange. Data-polynomial; never enumerates repairs.
//   Tier 2, kEnumeration: the repair-product engine (cqa.h
//     EnumeratedConsistentAnswer[s], on the query compiled for the call)
//     over the query's observable components only (ObservableComponents,
//     computed per execution from problem.decomposition()); components
//     whose projected priority is total collapse to Algorithm 1's single
//     output under S-, G- and C-Rep (P4). Aggregates fold per-component
//     ranges (DecomposedAggregateRange). Always sound; exponential only in
//     the observable components' families. A forced kEnumeration runs the
//     unpruned product over every component, each one searched without
//     the collapse — the differential reference for both.
//
// Only tiers 0 and 2 and tier-1 open answers compile the query (and so
// validate it against the schema); a tier-1 verdict validates it
// without compiling.
//
// ExplainPlan exposes the decision so tests, benches, and the shell can
// assert which tier fires; the Planned* entry points, one per request
// kind, plan and execute, reporting the tier that actually ran (a tier-1
// plan whose DNF conversion blows the budget falls back to tier 2 at
// runtime). The Session (server/session.h) lowers its EvalOptions onto
// CqaPlannerOptions and calls them on every result-cache miss.
//
// Equivalence of the tiers is pinned by the randomized differential
// suites in tests/planner_test.cc: planner-chosen fast paths and the
// pruned tier 2 against planner-forced enumeration, across all five
// families, empty / total / partial ranking / DAG priorities, and every
// query shape class.

#ifndef PREFREP_CQA_PLANNER_H_
#define PREFREP_CQA_PLANNER_H_

#include <optional>
#include <string>
#include <string_view>

#include "base/eval_options.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "core/families.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "repair/repair.h"

namespace prefrep {

class PreparedQuery;

// CqaTier itself lives in base/eval_options.h (so the consolidated
// EvalOptions can carry force_tier below the cqa layer); this header is
// its documentation home and re-exports it by inclusion.

// "single-repair", "ground-fast-path", "enumeration".
std::string_view CqaTierName(CqaTier tier);

// Which entry point the plan is for: the two differ in what tier 1 can
// handle (a closed ground query has a polynomial verdict; an open query
// needs quantifier-freeness and monotonicity instead).
enum class CqaRequest {
  kVerdict,      // PlannedConsistentAnswer (closed query)
  kOpenAnswers,  // PlannedConsistentAnswers
};

struct CqaPlan {
  CqaTier tier = CqaTier::kEnumeration;
  RepairFamily requested_family = RepairFamily::kAll;
  // kAll when the priority is empty (P3), `requested_family` otherwise.
  // Tier 2 also executes under this: an empty priority makes the
  // optimality filters (G-Rep's quadratic certificate, C-Rep's memoized
  // walk) pure overhead, so the planner strips them.
  RepairFamily effective_family = RepairFamily::kAll;
  bool family_collapsed = false;  // effective_family != requested_family
  std::string reason;             // one-line routing rationale

  // E.g. "tier 1 (ground-fast-path): G-Rep collapsed to Rep (empty
  // priority); ground quantifier-free query".
  std::string ToString() const;
};

struct CqaPlannerOptions {
  // Forces a tier instead of planning (the differential tests and the
  // dispatch bench). Forcing kSingleRepair on a database with conflicts,
  // or kGroundFastPath on a (plan, query) outside its scope, fails with
  // kInvalidArgument rather than computing an unsound answer; forcing
  // kGroundFastPath past the DNF budget surfaces kResourceExhausted
  // instead of falling back.
  std::optional<CqaTier> force_tier;
  // DNF budget for the tier-1 ground engine. ExplainPlan pre-checks the
  // conversion under this budget (query-size-dependent work only), so
  // oversized queries plan straight to tier 2.
  size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget;
  // Tier-2 sharding knob, forwarded to the enumeration engine.
  ParallelOptions parallel;

  // --- stage seams -------------------------------------------------------
  // For a caller that compiles and plans apart from executing, such as
  // perfbench's traced mirror, which times the three stages separately.
  // The Session passes neither.
  //
  // A PreparedQuery previously compiled against problem.db() for the SAME
  // query: tier 0, tier-1 open answers and tier 2 then skip
  // PreparedQuery::Compile and evaluate private copies of it (the object
  // itself is never mutated, so one master can serve concurrent calls).
  // Owned by the caller; must outlive the call.
  const PreparedQuery* prepared = nullptr;
  // A CqaPlan previously returned by ExplainPlan for the SAME
  // (problem, priority, family, query, request, max_dnf_disjuncts) inputs:
  // the dispatch then skips re-planning (including the DNF pre-attempt).
  // Ignored when force_tier is set. Owned by the caller.
  const CqaPlan* precomputed_plan = nullptr;
};

// Classifies (query shape, family, priority shape, instance shape)
// without touching the repair space. Deterministic and cheap: the only
// non-O(query) work is the conflict-count check and, for would-be tier-1
// plans, the DNF conversion attempt (exponential in the fixed query
// size, capped by the budget — never data-dependent).
CqaPlan ExplainPlan(const RepairProblem& problem, const Priority& priority,
                    RepairFamily family, const Query& query,
                    CqaRequest request, const CqaPlannerOptions& options = {});

// How tier 2 splits the conflict components for a query: components no
// atom can observe (pruned; cqa.h ObservableComponents), components whose
// projected priority is total under S-, G- or C-Rep (collapsed to
// Algorithm 1's one output), and the rest (enumerated). A tier-2
// execution records the same counts in its ExecutionStats.
struct ComponentSplitCounts {
  size_t pruned = 0;
  size_t collapsed = 0;
  size_t enumerated = 0;

  // "components: 214 pruned, 1 collapsed, 1 enumerated".
  std::string ToString() const;
};

// The split a tier-2 execution of `query` would use, under the family the
// planner runs (EffectiveFamily). Computed per call from the problem's
// current decomposition; never part of a CqaPlan, which outlives it.
ComponentSplitCounts ExplainComponentSplit(const RepairProblem& problem,
                                           const Priority& priority,
                                           RepairFamily family,
                                           const Query& query);

// The consistent answer to a closed query: the verdict over every
// preferred repair of `family` under `priority`, identical whichever tier
// fires (pinned by the differential suite in tests/planner_test.cc).
// `executed` (optional) receives the plan that actually ran, after any
// runtime fallback. Here and in the two entries below, a priority over no
// vertices stands for the empty priority and one over another vertex
// count than the problem's fails with kInvalidArgument (priority.h
// CheckPriorityFits).
Result<CqaVerdict> PlannedConsistentAnswer(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, const Query& query,
    const CqaPlannerOptions& options = {}, CqaPlan* executed = nullptr);

// The certain answers to an open query: the assignments of its free
// variables that satisfy it in every preferred repair (a closed query
// degenerates to the zero-variable answer set).
Result<OpenAnswer> PlannedConsistentAnswers(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, const Query& query,
    const CqaPlannerOptions& options = {}, CqaPlan* executed = nullptr);

// Plan + dispatch for aggregation ranges: COUNT under a Rep-equivalent
// plan routes to the polynomial per-component CountStarRange (tier 1);
// everything else runs DecomposedAggregateRange under the effective
// family (tier 2). A forced kEnumeration runs the reference
// AggregateConsistentRange over every repair.
Result<AggregateRange> PlannedAggregateRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const CqaPlannerOptions& options = {}, CqaPlan* executed = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CQA_PLANNER_H_
