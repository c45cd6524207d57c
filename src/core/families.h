// The four families of preferred repairs: L-Rep, S-Rep, G-Rep, C-Rep,
// plus the unrestricted Rep (no priorities given).
//
// PreferredRepairs / EnumeratePreferredRepairs select the subset of the
// repair space a family retains under a given priority; these drive the
// preferred-consistent-query-answer engines in src/cqa.

#ifndef PREFREP_CORE_FAMILIES_H_
#define PREFREP_CORE_FAMILIES_H_

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "base/bitset.h"
#include "base/eval_options.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "graph/components.h"
#include "graph/conflict_graph.h"
#include "priority/priority.h"

namespace prefrep {

enum class RepairFamily {
  kAll,         // Rep: every repair (Arenas-Bertossi-Chomicki baseline)
  kLocal,       // L-Rep: locally optimal repairs
  kSemiGlobal,  // S-Rep: semi-globally optimal repairs
  kGlobal,      // G-Rep: globally optimal repairs
  kCommon,      // C-Rep: common repairs (all Algorithm 1 outputs)
};

// "Rep", "L-Rep", "S-Rep", "G-Rep", "C-Rep".
std::string_view RepairFamilyName(RepairFamily family);

// All five families, in the paper's order (handy for sweeps).
inline constexpr RepairFamily kAllFamilies[] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kGlobal, RepairFamily::kCommon};

// True iff `priority` resolves no conflict at all (no arcs). Under an
// empty priority nothing is ever dominated, so the non-discrimination
// property P3 (§3, pinned by tests/properties_test.cc) collapses every
// family to plain Rep: L/S/G-optimality hold vacuously and every repair
// is an Algorithm 1 output.
inline bool PriorityIsEmpty(const Priority& priority) {
  return priority.arc_count() == 0;
}

// The family actually in force: `family` itself, except that an empty
// priority collapses every family to RepairFamily::kAll (see
// PriorityIsEmpty). The CQA planner normalizes through this before
// choosing an algorithm — it both unlocks the polynomial Rep-only fast
// paths for all five families and lets the enumeration tier skip the
// per-repair optimality filters (G-Rep's quadratic certificate, C-Rep's
// memoized choice-tree walk) when they cannot reject anything.
RepairFamily EffectiveFamily(const Priority& priority, RepairFamily family);

// X-repair checking (problem (i) of §4.1): is `repair` — assumed to be a
// repair — a member of family X under `priority`?
bool IsPreferredRepair(const ConflictGraph& graph, const Priority& priority,
                       RepairFamily family, const DynamicBitset& repair);

// Visits every repair of the family exactly once (order unspecified).
// The callback returns false to stop early; returns true iff enumeration
// completed. For kGlobal this runs the co-NP witness search per repair;
// for kCommon it explores the Algorithm 1 choice tree with memoization.
// Decomposes `graph` and runs the listed-components form below over every
// component.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback);

// Same, with per-component family materialization fanned out across
// options.threads workers: each component is searched by its own engine
// instance on one thread (engines are single-threaded by design), the
// per-component lists merge in component order, and the product odometer
// streams combinations through `callback` on the calling thread — so the
// emitted sequence is identical to the serial form and options only
// change wall-clock. threads <= 1 takes the serial path unchanged. One
// caveat at the edge of the kComponentListBudgetBytes budget: parallel
// G-Rep materialization holds several unfiltered lists concurrently where
// serial holds one at a time, so a transient peak can trip the streaming
// fallback where serial squeaks by — the repair *set* is still identical,
// but the fallback's emission order differs from the product's.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options,
    const std::function<bool(const DynamicBitset&)>& callback);

// Whether the product routine below may take Algorithm 1's single output
// instead of the family search on a component whose projected priority is
// total. kCollapse relies on categoricity (P4) for S-, G- and C-Rep;
// kSearch searches every listed component, so the reference paths (forced
// enumeration, the P4 check in core/properties.h) test P4 rather than
// assume it.
enum class TotalComponents { kCollapse, kSearch };

// The product routine every enumerating caller shares, over the listed
// `components` (ascending indices into `decomposition`, the decomposition
// of `graph`) only. Each emitted set holds the isolated vertices and one
// family member per listed component, and no vertex of any other
// component: a caller that never reads those vertices (cqa/cqa.h
// ObservableComponents) gets the same answer as over full repairs. With
// every component listed the sets are exactly the family's repairs.
//   - Under TotalComponents::kCollapse, a component whose projected
//     priority is total takes Algorithm 1's single output under S-, G-
//     and C-Rep (categoricity P4) instead of a search.
//   - A connected graph is enumerated in place, and a product with one
//     component left to search streams it without materializing.
//   - Otherwise the open components' lists are materialized (across
//     options.threads workers) and their product streamed; past the byte
//     budget the whole-graph streaming fallback takes over.
// options.context's stats record the pruned / collapsed / enumerated split.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const ComponentDecomposition& decomposition,
    const std::vector<int>& components, const Priority& priority,
    RepairFamily family, const ParallelOptions& options,
    const std::function<bool(const DynamicBitset&)>& callback,
    TotalComponents total = TotalComponents::kCollapse);

// Every component index of `decomposition`, ascending.
[[nodiscard]] std::vector<int> AllComponents(
    const ComponentDecomposition& decomposition);

// How many of `components` the routine above would collapse to their one
// Algorithm 1 output (for explain output; records no stats).
[[nodiscard]] size_t CountCollapsedComponents(
    const ComponentDecomposition& decomposition,
    const std::vector<int>& components, const Priority& priority,
    RepairFamily family);

// The materializing half of the routine above, for sharded consumers:
// fills `out` with the listed components' product (collapsed components
// scattered into out->base, the rest as digits with their lists), fanning
// the materialization out over `pool` (or an on-demand pool) when
// options.threads > 1. Returns kResourceExhausted past the byte budget
// (callers then stream the whole graph) or the context's status when it
// was interrupted.
[[nodiscard]] Status MaterializeFamilyProduct(
    const ComponentDecomposition& decomposition,
    const std::vector<int>& components, const Priority& priority,
    RepairFamily family, const ParallelOptions& options, ThreadPool* pool,
    ComponentProduct* out,
    TotalComponents total = TotalComponents::kCollapse);

// Streams the members of `family` on component c alone, in its local
// universe: Algorithm 1's single output when the routine above would
// collapse the component, its family search otherwise (recorded in the
// context's stats as collapsed or enumerated). Per-component consumers
// (cqa/aggregation.h's decomposed ranges) fold over it.
bool EnumerateComponentFamily(
    const ComponentDecomposition& decomposition, int c,
    const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context = nullptr);

// Materializes the family, failing with kResourceExhausted beyond `limit`
// (clamped to options.context's max_repair_list when a context is
// attached); an interrupted context fails with its kCancelled /
// kDeadlineExceeded status instead. A priority over no vertices stands
// for the empty priority; one over another vertex count fails with
// kInvalidArgument (priority.h CheckPriorityFits).
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    size_t limit = kDefaultRepairListLimit);
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options, size_t limit = kDefaultRepairListLimit);

// Consolidated-options form: threads, deadline and the repair-list cap all
// come from `options` (the cap from options.limits.max_repair_list — one
// source of truth with every other enumerator, see
// base/exec_context.h kDefaultRepairListLimit). Prefer this overload; the
// positional forms above survive as thin compatibility wrappers.
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options);

// Per-component family lists in their compact local universes, together
// with the decomposition that defines them; a collapsed component's list
// holds its one member.
struct ComponentFamilyLists {
  ComponentDecomposition decomposition;
  std::vector<std::vector<DynamicBitset>> choices;
};

// Decomposes `graph` and materializes every component's family list
// (MaterializeFamilyProduct over every component). Returns nullopt when
// the lists exceed the byte budget or the context was interrupted. A
// graph with no non-singleton component yields empty `choices`; its
// unique repair is decomposition.isolated().
[[nodiscard]] std::optional<ComponentFamilyLists>
MaterializeComponentFamilyLists(const ConflictGraph& graph,
                                const Priority& priority, RepairFamily family,
                                const ParallelOptions& options,
                                ThreadPool* pool = nullptr);

// Whole-graph streaming enumeration with O(search depth) memory: the
// forms EnumeratePreferredRepairs falls back to once per-component lists
// exceed the byte budget. For consumers that already know the budget is
// blown — re-running the doomed materialization would double the
// exponential core. Emission order differs from the product-based path
// (there is no product); the set of repairs is identical.
bool EnumeratePreferredRepairsStreaming(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CORE_FAMILIES_H_
