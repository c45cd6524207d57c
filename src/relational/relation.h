// Relation: a schema plus a bag of tuples with provenance metadata.
//
// Tuples are stored in insertion order; their index is their local id.
// Duplicate tuples are rejected (the paper works with set semantics).
//
// Storage is copy-on-write: copying a Relation shares one immutable
// representation (schema, tuples, metadata, hash index) and the first
// mutation through a copy clones it. This is what makes Database copies —
// and in particular ApplyDelta's derived databases (delta.h) — cheap:
// untouched relations are shared structurally between versions instead of
// being deep-copied. Readers holding `const Relation&` never observe a
// representation change; mutation is only reachable through non-const
// AddTuple.

#ifndef PREFREP_RELATIONAL_RELATION_H_
#define PREFREP_RELATIONAL_RELATION_H_

#include <memory>
#include <string>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace prefrep {

class Relation {
 public:
  Relation() : rep_(std::make_shared<Rep>()) {}
  explicit Relation(Schema schema) : rep_(std::make_shared<Rep>()) {
    rep_->schema = std::move(schema);
  }

  const Schema& schema() const { return rep_->schema; }
  int size() const { return static_cast<int>(rep_->tuples.size()); }
  const Tuple& tuple(int i) const { return rep_->tuples[i]; }
  const TupleMeta& meta(int i) const { return rep_->meta[i]; }
  const std::vector<Tuple>& tuples() const { return rep_->tuples; }

  // Validates against the schema and rejects exact duplicates.
  // Returns the local row index.
  Result<int> AddTuple(Tuple tuple, TupleMeta meta = TupleMeta{});

  // Row index of `tuple` if present.
  Result<int> Find(const Tuple& tuple) const;
  // Row index of the tuple with exactly these values, or -1: the same hash
  // probe as Find, without building a Tuple or a Status.
  int FindRow(std::span<const Value> values) const {
    auto it = rep_->index.find(values);
    return it == rep_->index.end() ? -1 : it->second;
  }
  bool Contains(const Tuple& tuple) const { return Find(tuple).ok(); }

  // True iff both relations point at the same underlying storage (they are
  // copies of one another with no intervening mutation). Structural-sharing
  // diagnostics and tests; value equality is not implied the other way.
  bool SharesStorageWith(const Relation& other) const {
    return rep_ == other.rep_;
  }

  // Multi-line textual dump (for examples / debugging).
  std::string ToString() const;

 private:
  struct Rep {
    Schema schema;
    std::vector<Tuple> tuples;
    std::vector<TupleMeta> meta;
    std::unordered_map<Tuple, int, Tuple::Hash, Tuple::Eq> index;
  };

  // Clones the representation if it is shared with another Relation.
  Rep* Mutable();

  std::shared_ptr<Rep> rep_;  // never null
};

}  // namespace prefrep

#endif  // PREFREP_RELATIONAL_RELATION_H_
