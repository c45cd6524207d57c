// PreparedQuery: compile-once, evaluate-per-repair query evaluation.
//
// Preferred-consistent-answer semantics (cqa/cqa.h) evaluates one fixed
// query in every enumerated repair of one fixed database, so anything the
// evaluator derives from the (database, query) pair alone is loop-invariant:
// validation, variable typing, the active domain and relation lookups. The seed evaluator (query/evaluator.h) recomputes all of
// it per call; PreparedQuery hoists it into a single Compile step so that
// the per-repair work is only the quantifier search itself, against the
// repair's DynamicBitset mask:
//
//   - variables are numbered into dense frame slots (array indexing instead
//     of std::map<std::string, Value> environments),
//   - every atom is resolved to its relation index at compile time,
//   - atom checks are O(arity) hash probes against the relation's own
//     tuple index (every term is bound when an atom is reached, so the
//     probe is an exact-tuple lookup), filtered by the mask bit,
//   - each variable's domain (active domain restricted by inferred types)
//     is materialized once.
//
// Semantics match EvalClosed/EvalOpen: quantified variables range over
// the active domain of the *full* database plus query constants,
// regardless of the mask (all repairs share the domains D and N). The
// randomized suite in tests/prepared_eval_test.cc pins the equivalence.
// One deliberate divergence: binders are lexically scoped here (each
// quantifier gets its own slot), whereas the reference evaluator keys
// its environment and type inference by variable *name* and so
// conflates distinct binders reusing a name — e.g. the domains of the
// two x's in (exists x . R(x)) and (exists x . S(x)) wrongly narrow
// each other there. PreparedQuery gives such queries their standard
// first-order meaning (pinned by ShadowedBinderNamesAreScopedPerBinder).
//
// A PreparedQuery borrows the Database: the database must outlive it and
// must not be mutated after Compile. Evaluation reuses internal scratch
// buffers, so a given PreparedQuery must not be evaluated concurrently.

#ifndef PREFREP_QUERY_PREPARED_H_
#define PREFREP_QUERY_PREPARED_H_

#include <memory>
#include <string>
#include <vector>

#include "base/bitset.h"
#include "base/status.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "relational/database.h"

namespace prefrep {

class PreparedQuery {
 public:
  // Validates and compiles `query` against `db`. The returned object
  // borrows `db` (see header comment) but owns everything else — the Query
  // AST can be destroyed afterwards.
  static Result<PreparedQuery> Compile(const Database& db, const Query& query);

  // Free variables of the compiled query, sorted by name (the column order
  // of EvalOpen answers, matching query/evaluator.h).
  const std::vector<std::string>& free_variables() const {
    return free_variables_;
  }
  bool is_closed() const { return free_variables_.empty(); }

  // Evaluates over the sub-database `mask` (nullptr for the full
  // database). EvalClosed requires a closed query.
  Result<bool> EvalClosed(const DynamicBitset* mask) const;
  Result<OpenAnswer> EvalOpen(const DynamicBitset* mask) const;

 private:
  // A compiled term: either a frame slot or an inline constant.
  struct CompiledTerm {
    int slot = -1;  // >= 0: variable; -1: constant
    Value constant;
  };

  // One node of the compiled tree (stored flat in nodes_, children by
  // index; node 0 is the root).
  struct Node {
    QueryKind kind = QueryKind::kTrue;
    // kAtom.
    int relation = -1;  // index into db_->relations()
    std::vector<CompiledTerm> terms;
    // kComparison.
    ComparisonOp op = ComparisonOp::kEq;
    CompiledTerm lhs, rhs;
    // kNot / kAnd / kOr / quantifiers.
    std::vector<int> children;
    // kExists / kForAll.
    std::vector<int> slots;
  };

  class Compiler;

  bool EvalNode(int node, const DynamicBitset* mask) const;
  bool EvalAtom(const Node& n, const DynamicBitset* mask) const;
  bool EvalQuantifier(const Node& n, bool existential, size_t var_index,
                      const DynamicBitset* mask) const;
  const Value& Resolve(const CompiledTerm& t) const {
    return t.slot >= 0 ? frame_[t.slot] : t.constant;
  }

  const Database* db_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<std::string> free_variables_;
  std::vector<int> free_slots_;  // frame slot of each free variable
  // Candidate values per frame slot (active domain restricted by the
  // slot's inferred type). Immutable after Compile and shared by copies,
  // so the private copy an evaluation takes costs O(query), not O(domain).
  std::shared_ptr<const std::vector<std::vector<Value>>> domains_;

  // Scratch: variable bindings during evaluation (size = slot count).
  mutable std::vector<Value> frame_;
};

}  // namespace prefrep

#endif  // PREFREP_QUERY_PREPARED_H_
