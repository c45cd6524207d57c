// Repairs (Definition 1): maximal subsets of the database consistent with
// the functional dependencies == maximal independent sets of the conflict
// graph. RepairProblem bundles a database, its FDs, the derived conflict
// graph and that graph's connected-component decomposition — the common
// input of everything in src/core and src/cqa. The decomposition is built
// once per database version and shared by every request against it.

#ifndef PREFREP_REPAIR_REPAIR_H_
#define PREFREP_REPAIR_REPAIR_H_

#include <memory>
#include <vector>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/status.h"
#include "constraints/conflicts.h"
#include "constraints/fd.h"
#include "graph/components.h"
#include "graph/conflict_graph.h"
#include "graph/mis.h"
#include "relational/database.h"

namespace prefrep {

class RepairProblem {
 public:
  // Builds the conflict graph of `db` w.r.t. `fds` and its decomposition.
  // The database must outlive the problem.
  static Result<RepairProblem> Create(const Database* db,
                                      std::vector<FunctionalDependency> fds);

  // Adopts an already-computed conflict graph and decomposition instead
  // of re-running detection — the incremental snapshot derivation
  // (server/snapshot.h) maintains both under deltas and hands them over
  // here. The caller guarantees `graph` IS the conflict graph of
  // (db, fds) and `decomposition` its decomposition; nothing is
  // re-verified.
  static RepairProblem FromPrecomputedGraph(
      const Database* db, std::vector<FunctionalDependency> fds,
      ConflictGraph graph, ComponentDecomposition decomposition);

  const Database& db() const { return *db_; }
  const std::vector<FunctionalDependency>& fds() const { return fds_; }
  const ConflictGraph& graph() const { return graph_; }
  const ComponentDecomposition& decomposition() const {
    return *decomposition_;
  }
  int tuple_count() const { return graph_.vertex_count(); }

  // True iff the subset contains no conflicting pair (is consistent).
  bool IsConsistentSubset(const DynamicBitset& subset) const {
    return graph_.IsIndependent(subset);
  }
  // True iff `subset` is a repair: maximal consistent subset.
  bool IsRepair(const DynamicBitset& subset) const {
    return graph_.IsMaximalIndependent(subset);
  }

  // Visits every repair; callback returns false to stop. Returns true iff
  // enumeration completed.
  bool EnumerateRepairs(
      const std::function<bool(const DynamicBitset&)>& callback) const {
    return EnumerateMaximalIndependentSets(graph_, callback);
  }

  // All repairs, failing with kResourceExhausted beyond `limit`.
  Result<std::vector<DynamicBitset>> AllRepairs(size_t limit = kDefaultRepairListLimit) const {
    return AllMaximalIndependentSets(graph_, limit);
  }

  // Exact repair count (2^n for Example 4's r_n).
  BigUint CountRepairs() const { return CountMaximalIndependentSets(graph_); }

  // The repair as a materialized database.
  Database MaterializeRepair(const DynamicBitset& repair) const {
    return db_->Induce(repair);
  }

 private:
  const Database* db_ = nullptr;
  std::vector<FunctionalDependency> fds_;
  ConflictGraph graph_;
  // Shared so that copies of a problem do not copy every component graph.
  std::shared_ptr<const ComponentDecomposition> decomposition_;
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_REPAIR_H_
