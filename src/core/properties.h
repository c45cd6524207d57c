// Checkers for the paper's axioms P1-P4 (§1) on concrete instances.
//
// The paper proves which family satisfies which axiom (Props. 2, 3, 4, 6);
// these helpers *verify the claims empirically* on any instance+priority,
// and power the randomized property sweeps in tests/ and the ablation
// benchmarks. They materialize repair families, so they are meant for
// moderate instance sizes.

#ifndef PREFREP_CORE_PROPERTIES_H_
#define PREFREP_CORE_PROPERTIES_H_

#include "base/status.h"
#include "core/families.h"
#include "graph/conflict_graph.h"
#include "priority/priority.h"

namespace prefrep {

// P1 (non-emptiness): X-Rep(priority) != {}.
Result<bool> SatisfiesNonEmptiness(const ConflictGraph& graph,
                                   const Priority& priority,
                                   RepairFamily family);

// P2 (monotonicity) for a concrete extension pair: `stronger` must extend
// `weaker`; checks X-Rep(stronger) ⊆ X-Rep(weaker).
Result<bool> SatisfiesMonotonicityFor(const ConflictGraph& graph,
                                      const Priority& weaker,
                                      const Priority& stronger,
                                      RepairFamily family);

// P3 (non-discrimination): X-Rep(empty priority) == Rep.
Result<bool> SatisfiesNonDiscrimination(const ConflictGraph& graph,
                                        RepairFamily family);

// P4 (categoricity) for a concrete total priority: |X-Rep(total)| == 1.
// `total` must be total for `graph` (kFailedPrecondition otherwise).
// Every component's family is searched (TotalComponents::kSearch), so the
// check does not rest on the product routine's collapse, which assumes P4.
Result<bool> SatisfiesCategoricityFor(const ConflictGraph& graph,
                                      const Priority& total,
                                      RepairFamily family);

// Containment helper: X-Rep(priority) ⊆ Y-Rep(priority). Used to verify
// the paper's chain C ⊆ G ⊆ S ⊆ L ⊆ Rep (Props. 3, 4, 6).
Result<bool> FamilyContainedIn(const ConflictGraph& graph,
                               const Priority& priority, RepairFamily inner,
                               RepairFamily outer);

}  // namespace prefrep

#endif  // PREFREP_CORE_PROPERTIES_H_
