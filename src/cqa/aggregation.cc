#include "cqa/aggregation.h"

#include <algorithm>
#include <limits>
#include <new>
#include <vector>

#include "base/exec_context.h"

namespace prefrep {

std::string_view AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kAvg:
      return "AVG";
  }
  return "?";
}

std::string AggregateRange::ToString() const {
  if (!has_value) {
    return empty_possible ? "[empty]" : "[undefined]";
  }
  std::string out = "[" + std::to_string(lo) + ", " + std::to_string(hi) +
                    "]";
  if (empty_possible) out += " (empty possible)";
  return out;
}

namespace {

// The aggregate of one repair restricted to `relation_mask`, or nullopt
// semantics via `defined=false` when the input is empty.
struct RepairAggregate {
  bool defined = false;
  double value = 0;
};

RepairAggregate AggregateOfRepair(const RepairProblem& problem,
                                  const DynamicBitset& repair,
                                  const DynamicBitset& relation_mask,
                                  int attribute, AggregateFunction fn,
                                  DynamicBitset& rows) {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min_v = std::numeric_limits<int64_t>::max();
  int64_t max_v = std::numeric_limits<int64_t>::min();
  // `rows` is caller-provided scratch: the repair enumeration loop calls
  // this once per repair and must stay allocation-free.
  rows.AssignAnd(repair, relation_mask);
  RepairAggregate out;
  if (fn == AggregateFunction::kCount) {
    // COUNT(*) must not touch attribute values: `attribute` is a dummy
    // index and may name a non-numeric column.
    out.defined = true;
    out.value = static_cast<double>(rows.Count());
    return out;
  }
  ForEachSetBit(rows, [&](int id) {
    int64_t v = problem.db().TupleOf(id).value(attribute).number();
    ++count;
    sum += v;
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  });
  if (count == 0) return out;  // MIN/MAX/SUM/AVG of an empty input
  out.defined = true;
  switch (fn) {
    case AggregateFunction::kMin:
      out.value = static_cast<double>(min_v);
      break;
    case AggregateFunction::kMax:
      out.value = static_cast<double>(max_v);
      break;
    case AggregateFunction::kSum:
      out.value = static_cast<double>(sum);
      break;
    case AggregateFunction::kAvg:
      out.value = static_cast<double>(sum) / static_cast<double>(count);
      break;
    case AggregateFunction::kCount:
      break;  // handled above
  }
  return out;
}

// The relation and attribute an aggregate reads, validated.
struct AggregateInput {
  int relation = 0;
  int attribute = 0;  // 0 for COUNT(*), which reads no attribute
};

Result<AggregateInput> ResolveAggregateInput(const Database& db,
                                             std::string_view relation,
                                             std::string_view attribute,
                                             AggregateFunction fn) {
  AggregateInput input;
  PREFREP_ASSIGN_OR_RETURN(input.relation, db.RelationIndex(relation));
  if (fn == AggregateFunction::kCount) return input;
  const Schema& schema = db.relations()[input.relation].schema();
  PREFREP_ASSIGN_OR_RETURN(input.attribute, schema.AttributeIndex(attribute));
  if (schema.attribute(input.attribute).type != ValueType::kNumber) {
    return Status::InvalidArgument("aggregate over non-numeric attribute '" +
                                   std::string(attribute) + "'");
  }
  return input;
}

// Folds per-repair aggregates into a range.
void Absorb(const RepairAggregate& agg, AggregateRange* range) {
  if (!agg.defined) {
    range->empty_possible = true;
    return;
  }
  if (!range->has_value) {
    range->has_value = true;
    range->lo = range->hi = agg.value;
  } else {
    range->lo = std::min(range->lo, agg.value);
    range->hi = std::max(range->hi, agg.value);
  }
}

// The aggregate's range over one repair source: `enumerate` streams the
// repairs (or the observable parts of them).
template <typename EnumerateFn>
Result<AggregateRange> EnumeratedRange(const RepairProblem& problem,
                                       const AggregateInput& input,
                                       AggregateFunction fn,
                                       ExecutionContext* context,
                                       const EnumerateFn& enumerate) {
  DynamicBitset relation_mask = problem.db().RelationMask(input.relation);
  AggregateRange range;
  DynamicBitset rows_scratch(problem.graph().vertex_count());
  enumerate([&](const DynamicBitset& repair) {
    if (context != nullptr) {
      if (context->ShouldStop()) return false;
      context->stats().AddRepairsExamined();
    }
    Absorb(AggregateOfRepair(problem, repair, relation_mask, input.attribute,
                             fn, rows_scratch),
           &range);
    return true;
  });
  // A range computed from a prefix of the repair space is not a range at
  // all — surface the interrupt instead of a too-narrow [lo, hi].
  if (context != nullptr && context->interrupted()) {
    return context->StatusWithStats();
  }
  return range;
}

// An inclusive integer range; `any` is false while it is empty.
struct IntRange {
  bool any = false;
  int64_t lo = 0;
  int64_t hi = 0;

  void Add(int64_t v) {
    lo = any ? std::min(lo, v) : v;
    hi = any ? std::max(hi, v) : v;
    any = true;
  }
};

// What one component's family members contribute to COUNT, SUM, MIN or
// MAX: the range of the member's own aggregate over the members with a
// row of the relation (for COUNT, over every member), and whether some
// member has no row, which contributes nothing.
struct ComponentContribution {
  IntRange rows;
  bool empty_possible = false;
};

// The aggregate's range across the product of independent contributions,
// tracking whether every factor can contribute nothing — then the
// aggregate of that repair is undefined (SUM, MIN, MAX) and empty_possible
// holds. Every aggregate here is monotone in each factor, so the range of
// a product is the fold of the factors' range endpoints.
class ProductRange {
 public:
  explicit ProductRange(AggregateFunction fn) : fn_(fn) {}

  void Absorb(const ComponentContribution& part) {
    IntRange next;
    if (some_.any) {
      switch (fn_) {
        case AggregateFunction::kCount:
        case AggregateFunction::kSum: {
          IntRange options = part.rows;
          if (part.empty_possible) options.Add(0);
          next.Add(some_.lo + options.lo);
          next.Add(some_.hi + options.hi);
          break;
        }
        case AggregateFunction::kMin:
          // An empty member leaves the minimum as it is.
          next.Add(part.rows.any ? std::min(some_.lo, part.rows.lo)
                                 : some_.lo);
          next.Add(part.empty_possible ? some_.hi
                                       : std::min(some_.hi, part.rows.hi));
          break;
        case AggregateFunction::kMax:
          next.Add(part.empty_possible ? some_.lo
                                       : std::max(some_.lo, part.rows.lo));
          next.Add(part.rows.any ? std::max(some_.hi, part.rows.hi)
                                 : some_.hi);
          break;
        case AggregateFunction::kAvg:
          CHECK(false) << "AVG does not decompose";
      }
    }
    if (none_ && part.rows.any) {
      next.Add(part.rows.lo);
      next.Add(part.rows.hi);
    }
    some_ = next;
    none_ = none_ && part.empty_possible;
  }

  AggregateRange Range() const {
    AggregateRange range;
    range.empty_possible = none_;
    range.has_value = some_.any;
    range.lo = static_cast<double>(some_.lo);
    range.hi = static_cast<double>(some_.hi);
    return range;
  }

 private:
  AggregateFunction fn_;
  bool none_ = true;  // every factor so far can contribute nothing
  IntRange some_;     // the aggregate so far, over the other choices
};

// One member's (or the isolated tuples') aggregate over its rows of the
// relation; `vertices` maps the member's bits to global tuple ids.
template <typename ForEachVertex>
void AddMember(const Database& db, const AggregateInput& input,
               AggregateFunction fn, const ForEachVertex& for_each_vertex,
               ComponentContribution* part) {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min_v = std::numeric_limits<int64_t>::max();
  int64_t max_v = std::numeric_limits<int64_t>::min();
  for_each_vertex([&](TupleId id) {
    if (db.RelationIndexOf(id) != input.relation) return;
    ++count;
    if (fn == AggregateFunction::kCount) return;
    int64_t v = db.TupleOf(id).value(input.attribute).number();
    sum += v;
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  });
  if (fn == AggregateFunction::kCount) {
    part->rows.Add(count);
    return;
  }
  if (count == 0) {
    part->empty_possible = true;
    return;
  }
  part->rows.Add(fn == AggregateFunction::kSum   ? sum
                 : fn == AggregateFunction::kMin ? min_v
                                                 : max_v);
}

}  // namespace

Result<AggregateRange> AggregateConsistentRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const ParallelOptions& options) try {
  PREFREP_ASSIGN_OR_RETURN(
      AggregateInput input,
      ResolveAggregateInput(problem.db(), relation, attribute, fn));
  const ComponentDecomposition& decomposition = problem.decomposition();
  return EnumeratedRange(
      problem, input, fn, options.context, [&](const auto& callback) {
        return EnumeratePreferredRepairs(
            problem.graph(), decomposition, AllComponents(decomposition),
            priority, family, options, callback, TotalComponents::kSearch);
      });
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted(
      "allocation failed during aggregate range enumeration");
}

Result<AggregateRange> DecomposedAggregateRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const ParallelOptions& options) try {
  ExecutionContext* context = options.context;
  const Database& db = problem.db();
  PREFREP_ASSIGN_OR_RETURN(AggregateInput input,
                           ResolveAggregateInput(db, relation, attribute, fn));
  // The components holding the relation's tuples; its isolated tuples are
  // in every repair.
  const ComponentDecomposition& decomposition = problem.decomposition();
  const Relation& rel = db.relations()[input.relation];
  std::vector<int> components;
  ComponentContribution isolated;
  std::vector<TupleId> isolated_rows;
  for (int row = 0; row < rel.size(); ++row) {
    TupleId id = db.GlobalId(input.relation, row);
    int c = decomposition.ComponentOf(id);
    if (c >= 0) {
      components.push_back(c);
    } else {
      isolated_rows.push_back(id);
    }
  }
  std::sort(components.begin(), components.end());
  components.erase(std::unique(components.begin(), components.end()),
                   components.end());
  if (fn == AggregateFunction::kAvg) {
    // AVG is not monotone in its factors: take the product over the
    // relation's components alone.
    return EnumeratedRange(problem, input, fn, context,
                           [&](const auto& callback) {
                             return EnumeratePreferredRepairs(
                                 problem.graph(), decomposition, components,
                                 priority, family, options, callback);
                           });
  }
  if (context != nullptr) {
    context->stats().AddComponentSplit(
        decomposition.components().size() - components.size(), 0, 0);
  }
  ProductRange product(fn);
  AddMember(db, input, fn,
            [&](const auto& visit) {
              for (TupleId id : isolated_rows) visit(id);
            },
            &isolated);
  if (fn == AggregateFunction::kCount || !isolated_rows.empty()) {
    product.Absorb(isolated);
  }
  for (int c : components) {
    if (context != nullptr && context->ShouldStop()) break;
    const std::vector<int>& vertices = decomposition.components()[c].vertices;
    ComponentContribution part;
    EnumerateComponentFamily(
        decomposition, c, priority, family,
        [&](const DynamicBitset& member) {
          AddMember(db, input, fn,
                    [&](const auto& visit) {
                      ForEachSetBit(member, [&](int i) { visit(vertices[i]); });
                    },
                    &part);
          return true;
        },
        context);
    if (context != nullptr && context->interrupted()) break;
    if (context != nullptr) context->stats().AddComponentsCompleted();
    product.Absorb(part);
  }
  if (context != nullptr && context->interrupted()) {
    return context->StatusWithStats();
  }
  return product.Range();
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted(
      "allocation failed during aggregate range computation");
}

Result<AggregateRange> CountStarRange(const RepairProblem& problem,
                                      std::string_view relation,
                                      ExecutionContext* context) {
  ParallelOptions options;
  options.context = context;
  return DecomposedAggregateRange(problem, Priority(), RepairFamily::kAll,
                                  relation, "", AggregateFunction::kCount,
                                  options);
}

}  // namespace prefrep
