#include "repair/repair.h"

namespace prefrep {

Result<RepairProblem> RepairProblem::Create(
    const Database* db, std::vector<FunctionalDependency> fds) {
  CHECK(db != nullptr);
  PREFREP_ASSIGN_OR_RETURN(std::vector<ConflictEdge> edges,
                           FindConflicts(*db, fds));
  RepairProblem problem;
  problem.db_ = db;
  problem.fds_ = std::move(fds);
  problem.graph_ = ConflictGraph(db->tuple_count(), edges);
  problem.decomposition_ =
      std::make_shared<const ComponentDecomposition>(problem.graph_);
  return problem;
}

RepairProblem RepairProblem::FromPrecomputedGraph(
    const Database* db, std::vector<FunctionalDependency> fds,
    ConflictGraph graph, ComponentDecomposition decomposition) {
  CHECK(db != nullptr);
  CHECK_EQ(graph.vertex_count(), db->tuple_count());
  CHECK_EQ(decomposition.vertex_count(), graph.vertex_count());
  RepairProblem problem;
  problem.db_ = db;
  problem.fds_ = std::move(fds);
  problem.graph_ = std::move(graph);
  problem.decomposition_ =
      std::make_shared<const ComponentDecomposition>(std::move(decomposition));
  return problem;
}

}  // namespace prefrep
