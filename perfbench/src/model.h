// The benchmark's own model of a workload instance: a seeded generator and
// an answer oracle that never calls into the library under test.
//
// Every relation is R<i>(K, V, W) with the single FD K -> V, so each key
// group (tuples sharing K) is one conflict component whose repairs are its
// V-classes. Every priority comes from a ranking with distinct ranks, so it
// is total, and the preferred families of Staworko, Chomicki and
// Marcinkowski (arXiv 0908.0464) follow from the definitions per group:
//   - S-Rep: a class survives iff no tuple outside it outranks every tuple
//     in it, i.e. iff it holds the group's top-ranked tuple;
//   - G-Rep: the class of the top-ranked tuple improves on every other
//     class (its top tuple dominates all of them) and nothing improves on
//     it;
//   - C-Rep: Algorithm 1 first picks an undominated tuple, which lies in
//     the top tuple's class, and that choice removes every other class.
// So S-, G- and C-Rep keep exactly the top tuple's class, and Rep keeps
// every class. Verdicts, certain answers and aggregate ranges combine the
// few groups a request names.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64: small, seedable, and independent of the library's Rng.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed ^ 0x5DEECE66DA3B2C1Full) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<size_t>(Below(
                                  static_cast<int64_t>(i)))]);
    }
  }

 private:
  uint64_t state_;
};

enum class Family { kRep, kSRep, kGRep, kCRep };

inline const char* FamilyName(Family f) {
  switch (f) {
    case Family::kRep: return "Rep";
    case Family::kSRep: return "S-Rep";
    case Family::kGRep: return "G-Rep";
    case Family::kCRep: return "C-Rep";
  }
  return "?";
}

// One fact R<rel>(K<k>, v, w) with its timestamp (a distinct rank).
struct Row {
  int rel = 0;
  int k = 0;
  int64_t v = 0;
  int64_t w = 0;
  int64_t ts = 0;
};

inline bool SameFact(const Row& a, const Row& b) {
  return a.rel == b.rel && a.k == b.k && a.v == b.v && a.w == b.w;
}

struct InstanceShape {
  int relations;
  int groups_per_relation;
  int min_group;
  int max_group;
};

// The rows in the library's canonical tuple-id order: row i is tuple id i.
// Updates keep that order the way DatabaseDelta::Apply does: survivors keep
// their relative order, inserts follow in batch order.
struct Instance {
  int relations = 0;
  std::vector<Row> rows;
  int64_t next_ts = 0;

  // Group sizes cycle through [min_group, max_group] and class counts
  // through 2..4 (capped by the size); one group in ten agrees on V (its
  // tuples are isolated). The seed shuffles which group gets which shape
  // and draws the timestamps, so the tuple and conflict counts are the same
  // for every seed.
  static Instance Generate(const InstanceShape& shape, BenchRng& rng) {
    Instance inst;
    inst.relations = shape.relations;
    const int span = shape.max_group - shape.min_group + 1;
    for (int r = 0; r < shape.relations; ++r) {
      std::vector<std::pair<int, int>> groups;  // (size, classes)
      for (int g = 0; g < shape.groups_per_relation; ++g) {
        const int size = shape.min_group + g % span;
        groups.emplace_back(
            size, g % 10 == 9 ? 1 : std::min(size, 2 + (g / span) % 3));
      }
      rng.Shuffle(groups);
      for (int g = 0; g < shape.groups_per_relation; ++g) {
        const auto [size, classes] = groups[g];
        for (int j = 0; j < size; ++j) {
          inst.rows.push_back(Row{r, g, j % classes, j, 0});
        }
      }
    }
    // Timestamps are a random permutation: storage order is not update
    // order.
    std::vector<int64_t> ts(inst.rows.size());
    for (size_t i = 0; i < ts.size(); ++i) ts[i] = static_cast<int64_t>(i);
    rng.Shuffle(ts);
    for (size_t i = 0; i < ts.size(); ++i) inst.rows[i].ts = ts[i];
    inst.next_ts = static_cast<int64_t>(ts.size());
    return inst;
  }

  // Removes `deleted` (matched by fact) and appends `inserted`.
  void Apply(const std::vector<Row>& deleted,
             const std::vector<Row>& inserted) {
    std::vector<Row> kept;
    kept.reserve(rows.size() + inserted.size());
    for (const Row& row : rows) {
      bool gone = false;
      for (const Row& d : deleted) gone = gone || SameFact(row, d);
      if (!gone) kept.push_back(row);
    }
    kept.insert(kept.end(), inserted.begin(), inserted.end());
    rows = std::move(kept);
  }
};

// Conflict-graph counts the model predicts for an instance.
struct GraphCounts {
  int64_t edges = 0;
  int64_t components = 0;
  int64_t isolated = 0;
  friend bool operator==(const GraphCounts&, const GraphCounts&) = default;
};

inline int64_t GroupKey(int rel, int k) {
  return static_cast<int64_t>(rel) * 1000000 + k;
}

// Per-group view of one instance version under one ranking.
class Oracle {
 public:
  struct Group {
    std::vector<int> rows;         // indices into the instance rows
    std::vector<int64_t> classes;  // distinct V values, ascending
    int64_t preferred = 0;         // class of the top-ranked tuple
  };

  // `ranks[i]` ranks row i (distinct); higher wins.
  Oracle(const Instance& inst, const std::vector<int64_t>& ranks)
      : inst_(&inst) {
    for (size_t i = 0; i < inst.rows.size(); ++i) {
      const Row& row = inst.rows[i];
      Group& g = groups_[GroupKey(row.rel, row.k)];
      g.rows.push_back(static_cast<int>(i));
    }
    for (auto& [key, g] : groups_) {
      int top = g.rows.front();
      for (int i : g.rows) {
        g.classes.push_back(inst.rows[i].v);
        if (ranks[i] > ranks[top]) top = i;
      }
      std::sort(g.classes.begin(), g.classes.end());
      g.classes.erase(std::unique(g.classes.begin(), g.classes.end()),
                      g.classes.end());
      g.preferred = inst.rows[top].v;
    }
  }

  const Group* Find(int rel, int k) const {
    auto it = groups_.find(GroupKey(rel, k));
    return it == groups_.end() ? nullptr : &it->second;
  }

  // The classes `family` keeps for a group.
  std::vector<int64_t> Kept(const Group& g, Family family) const {
    if (family == Family::kRep) return g.classes;
    return {g.preferred};
  }

  bool HasFact(int rel, int k, int64_t v, int64_t w) const {
    const Group* g = Find(rel, k);
    if (g == nullptr) return false;
    for (int i : g->rows) {
      const Row& row = inst_->rows[i];
      if (row.v == v && row.w == w) return true;
    }
    return false;
  }

  GraphCounts Counts() const {
    GraphCounts c;
    for (const auto& [key, g] : groups_) {
      const int64_t n = static_cast<int64_t>(g.rows.size());
      if (g.classes.size() < 2) {
        c.isolated += n;
        continue;
      }
      ++c.components;
      int64_t same = 0;
      for (int64_t cls : g.classes) {
        int64_t size = 0;
        for (int i : g.rows) size += inst_->rows[i].v == cls ? 1 : 0;
        same += size * size;
      }
      c.edges += (n * n - same) / 2;
    }
    return c;
  }

  // Facts (k, v, w) of a group whose V is `cls`, ordered by W.
  std::vector<const Row*> ClassRows(const Group& g, int64_t cls) const {
    std::vector<const Row*> out;
    for (int i : g.rows) {
      if (inst_->rows[i].v == cls) out.push_back(&inst_->rows[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const Row* a, const Row* b) { return a->w < b->w; });
    return out;
  }

  // [lo, hi] of COUNT (or SUM of V when `sum`) over relation `rel` across
  // the repairs `family` keeps: per-group minima and maxima add up.
  std::pair<double, double> AggregateRange(int rel, Family family,
                                           bool sum) const {
    double lo = 0;
    double hi = 0;
    for (const auto& [key, g] : groups_) {
      if (inst_->rows[g.rows.front()].rel != rel) continue;
      double gl = 0;
      double gh = 0;
      bool first = true;
      for (int64_t cls : Kept(g, family)) {
        const double size = static_cast<double>(ClassRows(g, cls).size());
        const double value = sum ? size * static_cast<double>(cls) : size;
        gl = first ? value : std::min(gl, value);
        gh = first ? value : std::max(gh, value);
        first = false;
      }
      lo += gl;
      hi += gh;
    }
    return {lo, hi};
  }

 private:
  const Instance* inst_;
  std::unordered_map<int64_t, Group> groups_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
