// Snapshot: an immutable, shareable view of one database version for the
// resident CQA server (see session.h for the facade that queries it).
//
// Everything derivable from (database, FDs) that every query against the
// version needs — the conflict graph, the connected-component
// decomposition, the per-FD LHS probe index and the active-domain census —
// is computed exactly once, at Create time. Sessions then share one
// Snapshot through shared_ptr<const Snapshot>: queries never mutate it, so
// any number of sessions (and their worker threads) can read it
// concurrently without synchronization. Updating data means building a NEW
// snapshot and pointing new sessions at it; in-flight queries keep the old
// version alive through their shared_ptr — MVCC in its simplest form.
//
// Derive() is the incremental way to build that new version: instead of
// recomputing the world from the post-delta database, it
//   - applies the DatabaseDelta (untouched relations share storage with
//     the parent via Relation's copy-on-write),
//   - keeps every conflict edge between surviving tuples (LHS agreement is
//     a property of the two tuples alone) and probes only the inserted
//     tuples against the per-FD LHS hash index for fresh edges; the
//     successor graph also shares the adjacency bitsets of every
//     identity-region tuple whose neighborhood is unchanged
//     (ConflictGraph::DeriveFrom), skipping the O(V^2/64)-bit allocation
//     that dominates graph construction — the universes need not match,
//     shared rows keep the parent's bit length (ragged adjacency, see
//     conflict_graph.h),
//   - carries every clean component of the parent decomposition over and
//     re-runs BFS only on the dirty region,
//   - records what changed in a SnapshotDeltaInfo so a derived Session can
//     seed its caches from the parent and invalidate only entries whose
//     footprint intersects the dirty set.
// The result is bit-for-bit identical to Create() on the post-delta
// database (pinned by tests/incremental_snapshot_test.cc); the MVCC
// contract is unchanged — the parent snapshot is never touched.
//
// The Database is heap-allocated inside the snapshot because RepairProblem
// borrows a stable `const Database*`; the snapshot is therefore movable as
// a unit only via its shared_ptr, never copied.

#ifndef PREFREP_SERVER_SNAPSHOT_H_
#define PREFREP_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/status.h"
#include "constraints/conflict_index.h"
#include "constraints/fd.h"
#include "graph/components.h"
#include "graph/conflict_graph.h"
#include "relational/database.h"
#include "relational/delta.h"
#include "repair/repair.h"

namespace prefrep {

// What a Derive changed relative to the parent snapshot — the session
// cache-seeding contract (session.h) is expressed entirely in these terms.
struct SnapshotDeltaInfo {
  uint64_t parent_id = 0;
  // Relations with at least one insert or delete, sorted.
  std::vector<int> touched_relations;
  // Parent-decomposition component indices invalidated by the delta
  // (deleted member or fresh-edge endpoint), sorted.
  std::vector<int> dirty_parent_components;
  // Every tuple id below this denotes the same tuple in parent and child
  // (DeltaRemap::first_shifted); ids at or above it moved, died, or are
  // new.
  TupleId first_shifted_id = 0;
  // True iff the delta left the active domain (the set of distinct values
  // across the whole database) unchanged. PreparedQuery quantifier domains
  // range over the active domain, so cached results survive only when this
  // holds.
  bool domain_preserved = true;
  int inserted_tuples = 0;
  int deleted_tuples = 0;
  // Decomposition reuse accounting (diagnostics, bench assertions).
  int carried_components = 0;
  int rebuilt_components = 0;

  // One line, e.g. "delta from #3: +2/-1 tuples, 1 relation touched,
  // 2/17 components rebuilt, domain preserved".
  std::string ToString() const;
};

class Snapshot {
 public:
  // Takes ownership of `db` and `fds`, builds the conflict graph and the
  // component decomposition (RepairProblem::Create). Fails (kInvalidArgument) when an FD names a
  // relation or attribute the database does not have.
  static Result<std::shared_ptr<const Snapshot>> Create(
      Database db, std::vector<FunctionalDependency> fds);

  // Builds the successor snapshot of `base` under `delta` incrementally
  // (see the file comment). `delta` must have been staged against
  // base->db(). `context` (optional) is polled throughout; on interrupt
  // the context's status (kCancelled / kDeadlineExceeded) is returned, no
  // partial snapshot escapes, and the parent is untouched — rerunning the
  // same Derive yields a bit-for-bit identical successor.
  static Result<std::shared_ptr<const Snapshot>> Derive(
      const std::shared_ptr<const Snapshot>& base, const DatabaseDelta& delta,
      ExecutionContext* context = nullptr);

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  const Database& db() const { return *db_; }
  const std::vector<FunctionalDependency>& fds() const {
    return problem_.fds();
  }
  const RepairProblem& problem() const { return problem_; }
  const ConflictGraph& graph() const { return problem_.graph(); }
  const ComponentDecomposition& decomposition() const {
    return problem_.decomposition();
  }
  // Per-FD LHS probe index over db() (what Derive probes delta tuples
  // against).
  const FdConflictIndex& conflict_index() const { return conflict_index_; }
  // Value-occurrence census of db() (what Derive folds the delta into).
  const ValueCensus& census() const { return census_; }

  // Non-null iff this snapshot came from Derive(); describes the delta
  // relative to the parent. The parent snapshot itself is NOT retained —
  // lineage does not pin memory.
  const SnapshotDeltaInfo* delta_info() const { return delta_info_.get(); }

  // Process-unique, monotonically increasing. Distinguishes snapshot
  // versions in logs and cache diagnostics.
  uint64_t id() const { return id_; }

  // One line: tuple/conflict/component counts, e.g.
  // "snapshot #3: 12 tuples, 4 conflicts, 2 components (6 isolated tuples)".
  std::string Describe() const;

 private:
  Snapshot() = default;

  std::unique_ptr<Database> db_;  // stable address: problem_ borrows it
  RepairProblem problem_;  // owns the graph and its decomposition
  FdConflictIndex conflict_index_;
  ValueCensus census_;
  std::unique_ptr<SnapshotDeltaInfo> delta_info_;
  uint64_t id_ = 0;
};

}  // namespace prefrep

#endif  // PREFREP_SERVER_SNAPSHOT_H_
