// Preferred consistent query answering (§2.3): the engines.
//
// For a closed query Q and a family X of preferred repairs, `true` is the
// X-consistent answer iff Q holds in every repair of X-Rep. We report a
// three-valued verdict: certainly true (holds in all), certainly false
// (holds in none), or undetermined (differs between preferred repairs).
//
// The generic engine enumerates preferred repairs with two-sided
// short-circuiting; for the family Rep and *ground quantifier-free*
// queries, GroundConsistentAnswer implements the polynomial
// conflict-graph algorithm (Chomicki–Marcinkowski; first row of Fig. 5).
// Callers ask through the planner (cqa/planner.h
// PlannedConsistentAnswer[s]), which picks among these engines per call.

#ifndef PREFREP_CQA_CQA_H_
#define PREFREP_CQA_CQA_H_

#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "query/normal_form.h"
#include "query/prepared.h"
#include "repair/repair.h"

namespace prefrep {

enum class CqaVerdict {
  kCertainlyTrue,   // Q holds in every preferred repair
  kCertainlyFalse,  // Q holds in no preferred repair
  kUndetermined,    // Q differs between preferred repairs
};

std::string_view CqaVerdictName(CqaVerdict verdict);

// The tier-2 engine, the form the planner runs: evaluates the closed
// query in every preferred repair (enumeration stops as soon as both a
// satisfying and a falsifying repair have been seen). `prepared` must
// have been compiled against problem.db(); the engine evaluates it in
// place (evaluation reuses its scratch), so a caller holding a shared
// master passes a copy and one that compiled for this call moves it in.
// `components`, when set, lists the components of problem.decomposition()
// the query can observe (ObservableComponents); the product then ranges
// over those only, and every other component is left out of the
// evaluated sets. Null enumerates full repairs with every component
// searched, without the P4 collapse: the reference that forced
// enumeration runs.
//
// options.threads > 1 shards the work two ways: per-component family
// lists are materialized by parallel workers (core/families.h), then the
// repair product is split into slices evaluated concurrently, each worker
// holding a private copy of the compiled query. Per-shard partial
// verdicts ("saw a satisfying / falsifying repair") merge by a
// commutative OR, so the verdict is identical to the serial result; a
// shared flag stops every shard once both outcomes have been observed.
Result<CqaVerdict> EnumeratedConsistentAnswer(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, PreparedQuery prepared,
    const std::vector<int>* components, const ParallelOptions& options);

// Tier-2 engine for open queries: the assignments of the free variables
// satisfying the query in every preferred repair (the intersection of
// the per-repair answer sets). `prepared` and `components` as for
// EnumeratedConsistentAnswer.
//
// options.threads > 1 shards exactly like EnumeratedConsistentAnswer;
// each worker intersects the answer sets of its repair slice and the
// per-shard partial intersections combine by the same commutative set
// intersection, so the answer set is identical to the serial result. A
// shard whose partial intersection empties proves the global answer
// empty and stops the others.
Result<OpenAnswer> EnumeratedConsistentAnswers(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, PreparedQuery prepared,
    const std::vector<int>* components, const ParallelOptions& options);

// The components of problem.decomposition() a query can observe,
// ascending: those holding a tuple some atom of `query` can match. An
// atom matches the tuples that agree with its constants, and with the
// constants that `x = c` conjuncts of an enclosing `and` pin its
// variables to (unless a quantifier in between rebinds the variable);
// equalities under `or` or `not` pin nothing. A ground atom costs one
// hash lookup, any other atom a scan of its relation. Evaluation reads no
// tuple of any other component, and preferred repairs factor over
// components, so tier 2 takes the repair product over these alone. The
// result holds for this decomposition only: compute it per execution.
[[nodiscard]] std::vector<int> ObservableComponents(const RepairProblem& problem,
                                                    const Query& query);

// Polynomial-time consistent answers for ground quantifier-free queries
// under the plain Rep semantics: true iff the query holds in every repair.
// Negates the query, converts to DNF, and decides per disjunct whether
// some repair satisfies it via a bounded witness search over conflict
// neighborhoods (data-polynomial for a fixed query). An adversarially
// nested query whose DNF exceeds `max_dnf_disjuncts` fails with
// kResourceExhausted (the planner then falls back to enumeration).
//
// `context`, when set, clamps the DNF caps to its ExecutionLimits and is
// polled once per disjunct (and per candidate row in the open form);
// expiry/cancel surfaces as the context's latched status.
Result<bool> GroundConsistentAnswer(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr);

// Full three-valued verdict computed with two GroundConsistentAnswer
// calls (on Q and not Q).
Result<CqaVerdict> GroundConsistentVerdict(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr);

// Polynomial consistent answers for *open* negation-free quantifier-free
// queries under plain Rep: the candidate answers are computed on the full
// (inconsistent) database — sound because negation-free queries are
// monotone — and each candidate's ground instantiation is certified with
// GroundConsistentAnswer. `prepared`, when set, is a master compiled from
// `query` against problem.db(): the candidates are computed on a private
// copy of it instead of a fresh compilation.
Result<OpenAnswer> GroundConsistentOpenAnswers(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr,
    const PreparedQuery* prepared = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CQA_CQA_H_
