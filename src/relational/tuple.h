// Tuples and per-tuple provenance metadata.

#ifndef PREFREP_RELATIONAL_TUPLE_H_
#define PREFREP_RELATIONAL_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace prefrep {

// A tuple of interned Values. Since Value is a trivially copyable 16-byte
// scalar, the backing vector is a flat contiguous buffer: copying a tuple
// is one allocation plus a memcpy, and comparing/hashing touches no string
// data.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  // Convenience builder: Tuple::Of(Value::Name("Mary"), Value::Number(40)).
  template <typename... Vs>
  static Tuple Of(Vs... values) {
    return Tuple(std::vector<Value>{std::move(values)...});
  }

  int arity() const { return static_cast<int>(values_.size()); }
  const Value& value(int i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  // E.g. "(Mary, R&D, 40000, 3)".
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.values_ < b.values_;
  }

  // Transparent: a tuple and the span of its values hash and compare
  // alike, so an index keyed by Tuple can be probed without building one.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::span<const Value> values) const {
      Value::Hash vh;
      size_t h = 1469598103934665603ull;
      for (const Value& v : values) {
        h ^= vh(v);
        h *= 1099511628211ull;
      }
      return h;
    }
    size_t operator()(const Tuple& t) const { return (*this)(t.values_); }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
    bool operator()(std::span<const Value> a, const Tuple& b) const {
      return std::equal(a.begin(), a.end(), b.values_.begin(),
                        b.values_.end());
    }
    bool operator()(const Tuple& a, std::span<const Value> b) const {
      return (*this)(b, a);
    }
  };

 private:
  std::vector<Value> values_;
};

// Provenance carried alongside each tuple. Data-cleaning systems expose
// exactly this kind of information (paper §1): the source a tuple came from
// and its creation/modification timestamp. Priorities can be synthesized
// from either (src/cleaning).
struct TupleMeta {
  static constexpr int kNoSource = -1;
  static constexpr int64_t kNoTimestamp = -1;

  int source_id = kNoSource;
  int64_t timestamp = kNoTimestamp;
};

// Checks that `tuple` conforms to `schema` (arity and per-position types).
Status ValidateTuple(const Schema& schema, const Tuple& tuple);

}  // namespace prefrep

#endif  // PREFREP_RELATIONAL_TUPLE_H_
