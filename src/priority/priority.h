// Priority (Definition 2): an acyclic binary relation defined only on
// conflicting tuples — equivalently a partial acyclic orientation of the
// conflict graph. "x ≻ y" reads "x dominates y": in a conflict between x
// and y the user prefers to keep x.

#ifndef PREFREP_PRIORITY_PRIORITY_H_
#define PREFREP_PRIORITY_PRIORITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/bitset.h"
#include "base/status.h"
#include "graph/conflict_graph.h"

namespace prefrep {

class Priority {
 public:
  Priority() = default;

  // The empty priority (no conflicts resolved) for `graph`.
  static Priority Empty(const ConflictGraph& graph);

  // Validates (Definition 2): every arc (x, y) [meaning x ≻ y] must lie on a
  // conflict edge, no edge may be oriented both ways, and the relation must
  // be acyclic.
  static Result<Priority> Create(const ConflictGraph& graph,
                                 std::vector<std::pair<int, int>> arcs);

  // Builds a priority from an arbitrary acyclic binary relation on tuples by
  // keeping only the pairs that are actual conflicts (§2.2: "define the
  // priority as an arbitrary acyclic binary relation on r and then use such
  // a priority relation only on conflicting tuples").
  static Result<Priority> FromBinaryRelation(
      const ConflictGraph& graph, const std::vector<std::pair<int, int>>& arcs);

  // Orients every conflict edge from the higher-ranked tuple to the
  // lower-ranked one; edges between equally ranked tuples stay unoriented.
  // Rank-derived orientations are always acyclic. With `higher_wins` false
  // the lower rank dominates (e.g. "older timestamp wins").
  static Priority FromRanking(const ConflictGraph& graph,
                              const std::vector<int64_t>& ranks,
                              bool higher_wins = true);

  int vertex_count() const { return vertex_count_; }
  int arc_count() const { return static_cast<int>(arcs_.size()); }
  // Sorted ordered pairs (x, y) with x ≻ y.
  const std::vector<std::pair<int, int>>& arcs() const { return arcs_; }

  // x ≻ y?
  bool Dominates(int x, int y) const {
    return dominated_by_[x].Test(y);
  }
  // {u : u ≻ v}.
  const DynamicBitset& DominatorsOf(int v) const { return dominators_[v]; }
  // {v : u ≻ v}.
  const DynamicBitset& DominatedBy(int u) const { return dominated_by_[u]; }

  // True iff every conflict edge of `graph` is oriented (§2.2: a priority
  // that cannot be extended further is total).
  bool IsTotalFor(const ConflictGraph& graph) const;

  // True iff `other` extends this priority: other ⊇ this as arc sets.
  bool IsExtendedBy(const Priority& other) const;

  // This priority plus `extra_arcs`; validated like Create.
  Result<Priority> Extend(const ConflictGraph& graph,
                          const std::vector<std::pair<int, int>>& extra_arcs)
      const;

  // E.g. "{3≻1, 4≻2}".
  std::string ToString() const;

  friend bool operator==(const Priority& a, const Priority& b) {
    return a.vertex_count_ == b.vertex_count_ && a.arcs_ == b.arcs_;
  }

 private:
  int vertex_count_ = 0;
  std::vector<std::pair<int, int>> arcs_;
  std::vector<DynamicBitset> dominators_;    // incoming domination
  std::vector<DynamicBitset> dominated_by_;  // outgoing domination
};

// The check every entry point makes on a caller's priority: OK when it
// is over `graph`'s vertices or over none (a default-constructed
// Priority, which the entry points read as Priority::Empty(graph));
// kInvalidArgument for any other vertex count.
[[nodiscard]] Status CheckPriorityFits(const ConflictGraph& graph,
                                       const Priority& priority);

// The winnow operator ω≻(r) = {t ∈ r | ¬∃ t' ∈ r. t' ≻ t} (Chomicki,
// TODS'03), i.e. the members of `r` not dominated by any member of `r`.
[[nodiscard]] DynamicBitset Winnow(const Priority& priority,
                                   const DynamicBitset& r);

// Allocation-free form: overwrites `out` (same universe as `r`) with ω≻(r).
// `out` must not alias `r`.
void WinnowInto(const Priority& priority, const DynamicBitset& r,
                DynamicBitset& out);

// Restricts `priority` to component c of `decomposition`, remapped to
// local ids. Priority arcs always join conflicting tuples, so every arc
// lands in exactly one component. Costs a binary search per member in the
// sorted arc list, so a request that touches a few components never pays
// for the rest.
class ComponentDecomposition;
[[nodiscard]] Priority ProjectPriority(
    const ComponentDecomposition& decomposition, int c,
    const Priority& priority);

// ProjectPriority for every decomposition.components() element, in order.
[[nodiscard]] std::vector<Priority> ProjectPriorities(
    const ComponentDecomposition& decomposition, const Priority& priority);

}  // namespace prefrep

#endif  // PREFREP_PRIORITY_PRIORITY_H_
