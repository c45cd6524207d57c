#include "graph/components.h"

#include <algorithm>
#include <utility>

namespace prefrep {

ConflictGraph InducedSubgraph(const ConflictGraph& graph,
                              const std::vector<int>& vertices) {
  int local_count = static_cast<int>(vertices.size());
  std::vector<int> local_of(graph.vertex_count(), -1);
  for (int i = 0; i < local_count; ++i) {
    CHECK(i == 0 || vertices[i - 1] < vertices[i])
        << "InducedSubgraph needs sorted distinct vertices";
    local_of[vertices[i]] = i;
  }
  std::vector<std::pair<int, int>> local_edges;
  for (int i = 0; i < local_count; ++i) {
    ForEachSetBit(graph.Neighbors(vertices[i]), [&](int w) {
      // Emit each edge once from its lower endpoint.
      if (w > vertices[i] && local_of[w] >= 0) {
        local_edges.emplace_back(i, local_of[w]);
      }
    });
  }
  return ConflictGraph(local_count, local_edges);
}

bool SpansOneComponent(const ConflictGraph& graph) {
  int n = graph.vertex_count();
  if (n == 0) return false;
  // Word-parallel BFS from vertex 0.
  DynamicBitset visited(n);
  DynamicBitset frontier(n);
  DynamicBitset next(n);
  frontier.Set(0);
  while (frontier.Any()) {
    visited |= frontier;
    next.Clear();
    ForEachSetBit(frontier, [&](int v) { next |= graph.Neighbors(v); });
    next.Subtract(visited);
    std::swap(frontier, next);
  }
  return visited.Count() == n;
}

ComponentDecomposition::ComponentDecomposition(const ConflictGraph& graph)
    : vertex_count_(graph.vertex_count()),
      isolated_(graph.vertex_count()),
      component_of_(graph.vertex_count(), -1),
      local_index_(graph.vertex_count(), -1) {
  for (const std::vector<int>& vertices : graph.ConnectedComponents()) {
    if (vertices.size() == 1) {
      isolated_.Set(vertices[0]);
      continue;
    }
    int c = static_cast<int>(components_.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      component_of_[vertices[i]] = c;
      local_index_[vertices[i]] = static_cast<int>(i);
    }
    GraphComponent component;
    component.graph = InducedSubgraph(graph, vertices);
    component.vertices = vertices;
    components_.push_back(std::move(component));
  }
  rebuilt_component_count_ = static_cast<int>(components_.size());
}

ComponentDecomposition::ComponentDecomposition(
    const ConflictGraph& graph, const DecompositionDeltaSeed& seed)
    : vertex_count_(graph.vertex_count()),
      isolated_(graph.vertex_count()),
      component_of_(graph.vertex_count(), -1),
      local_index_(graph.vertex_count(), -1) {
  CHECK(seed.parent != nullptr && seed.old_to_new != nullptr);
  const ComponentDecomposition& parent = *seed.parent;
  const std::vector<int>& old_to_new = *seed.old_to_new;
  CHECK_EQ(static_cast<int>(old_to_new.size()), parent.vertex_count());

  // Clean parent components survive intact: every member remapped (the
  // delta deleted none of them — that would have dirtied the component),
  // the local subgraph reused. Parent order is by smallest old vertex and
  // the remap is monotone, so the carried list stays sorted by smallest
  // new vertex.
  std::vector<GraphComponent> carried;
  carried.reserve(parent.components().size());
  size_t next_dirty = 0;
  for (size_t c = 0; c < parent.components().size(); ++c) {
    while (next_dirty < seed.dirty_components.size() &&
           seed.dirty_components[next_dirty] < static_cast<int>(c)) {
      ++next_dirty;
    }
    if (next_dirty < seed.dirty_components.size() &&
        seed.dirty_components[next_dirty] == static_cast<int>(c)) {
      continue;
    }
    const GraphComponent& source = parent.components()[c];
    GraphComponent component;
    component.vertices.reserve(source.vertices.size());
    for (int old_vertex : source.vertices) {
      int new_vertex = old_to_new[old_vertex];
      DCHECK(new_vertex >= 0) << "clean component lost vertex " << old_vertex;
      component.vertices.push_back(new_vertex);
    }
    component.graph = source.graph;
    carried.push_back(std::move(component));
  }

  // Dirty region: plain BFS from the seed vertices over the new graph.
  // Closure stays inside the dirty region — an edge from a dirty vertex
  // into a clean component would be a fresh edge, which dirties that
  // component by the seed's contract.
  std::vector<GraphComponent> rebuilt;
  DynamicBitset visited(vertex_count_);
  std::vector<int> stack;
  for (int start : seed.dirty_vertices) {
    if (visited.Test(start)) continue;
    std::vector<int> vertices;
    stack.assign(1, start);
    visited.Set(start);
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      vertices.push_back(v);
      ForEachSetBit(graph.Neighbors(v), [&](int w) {
        if (!visited.Test(w)) {
          visited.Set(w);
          stack.push_back(w);
        }
      });
    }
    if (vertices.size() == 1) continue;  // isolated; swept up below
    std::sort(vertices.begin(), vertices.end());
    GraphComponent component;
    component.graph = InducedSubgraph(graph, vertices);
    component.vertices = std::move(vertices);
    rebuilt.push_back(std::move(component));
  }
  std::sort(rebuilt.begin(), rebuilt.end(),
            [](const GraphComponent& a, const GraphComponent& b) {
              return a.vertices.front() < b.vertices.front();
            });

  // Count directly from the two lists rather than by parent/child set
  // arithmetic — fresh edges can merge several dirty parent components
  // into one child component, so differences of totals don't track what
  // was actually BFS-built.
  carried_component_count_ = static_cast<int>(carried.size());
  rebuilt_component_count_ = static_cast<int>(rebuilt.size());

  // Merge carried and rebuilt by smallest vertex — the global order
  // ComponentDecomposition(graph) would produce — and index everything.
  components_.reserve(carried.size() + rebuilt.size());
  size_t i = 0;
  size_t j = 0;
  while (i < carried.size() || j < rebuilt.size()) {
    bool take_carried =
        j >= rebuilt.size() ||
        (i < carried.size() &&
         carried[i].vertices.front() < rebuilt[j].vertices.front());
    components_.push_back(take_carried ? std::move(carried[i++])
                                       : std::move(rebuilt[j++]));
  }
  for (size_t c = 0; c < components_.size(); ++c) {
    const std::vector<int>& vertices = components_[c].vertices;
    for (size_t k = 0; k < vertices.size(); ++k) {
      component_of_[vertices[k]] = static_cast<int>(c);
      local_index_[vertices[k]] = static_cast<int>(k);
    }
  }
  for (int v = 0; v < vertex_count_; ++v) {
    if (component_of_[v] < 0) isolated_.Set(v);
  }
}

void ComponentDecomposition::Scatter(int c, const DynamicBitset& local,
                                     DynamicBitset& global) const {
  const GraphComponent& component = components_[c];
  CHECK_EQ(local.size(), component.graph.vertex_count());
  CHECK_EQ(global.size(), vertex_count_);
  for (size_t i = 0; i < component.vertices.size(); ++i) {
    global.Assign(component.vertices[i], local.Test(static_cast<int>(i)));
  }
}

void ComponentDecomposition::Gather(int c, const DynamicBitset& global,
                                    DynamicBitset& local) const {
  const GraphComponent& component = components_[c];
  CHECK_EQ(local.size(), component.graph.vertex_count());
  CHECK_EQ(global.size(), vertex_count_);
  for (size_t i = 0; i < component.vertices.size(); ++i) {
    local.Assign(static_cast<int>(i), global.Test(component.vertices[i]));
  }
}

ComponentProductEnumerator::ComponentProductEnumerator(
    const ComponentDecomposition& decomposition,
    const ComponentProduct* product, ExecutionContext* context)
    : decomposition_(decomposition), product_(product), context_(context) {
  CHECK_EQ(product_->choices.size(), product_->components.size());
  CHECK_EQ(product_->base.size(), decomposition_.vertex_count());
}

ComponentProductEnumerator::ComponentProductEnumerator(
    const ComponentDecomposition& decomposition,
    std::vector<std::vector<DynamicBitset>> choices, ExecutionContext* context)
    : decomposition_(decomposition), product_(&owned_), context_(context) {
  CHECK_EQ(choices.size(), decomposition_.components().size());
  owned_.base = decomposition_.isolated();
  owned_.components.resize(choices.size());
  for (size_t c = 0; c < choices.size(); ++c) {
    owned_.components[c] = static_cast<int>(c);
  }
  owned_.choices = std::move(choices);
}

bool ComponentProductEnumerator::Enumerate(
    const std::function<bool(const DynamicBitset&)>& callback) {
  return EnumerateSlices({}, callback);
}

bool ComponentProductEnumerator::EnumerateSlices(
    const std::vector<DigitRange>& ranges,
    const std::function<bool(const DynamicBitset&)>& callback) {
  const std::vector<std::vector<DynamicBitset>>& choices = product_->choices;
  const std::vector<int>& components = product_->components;
  int digits = static_cast<int>(choices.size());
  DynamicBitset scratch = product_->base;
  if (digits == 0) return callback(scratch);  // the one combination: base
  std::vector<size_t> begins(digits, 0);
  std::vector<size_t> ends(digits);
  for (int d = 0; d < digits; ++d) ends[d] = choices[d].size();
  for (const DigitRange& range : ranges) {
    CHECK(range.digit >= 0 && range.digit < digits);
    CHECK_LE(range.end, choices[range.digit].size());
    begins[range.digit] = range.begin;
    ends[range.digit] = range.end;
  }
  for (int d = 0; d < digits; ++d) {
    if (begins[d] >= ends[d]) return true;  // empty box (or empty list)
  }
  std::vector<size_t> index(digits);
  for (int d = 0; d < digits; ++d) {
    index[d] = begins[d];
    decomposition_.Scatter(components[d], choices[d][index[d]], scratch);
  }
  while (true) {
    if (context_ != nullptr && context_->ShouldStop()) return false;
    if (!callback(scratch)) return false;
    // Odometer advance: bump the first digit that has a next option,
    // rewinding the ones before it. Only changed digits are re-scattered,
    // so consecutive outputs cost O(size of the components that moved).
    int d = 0;
    while (d < digits && index[d] + 1 == ends[d]) {
      index[d] = begins[d];
      decomposition_.Scatter(components[d], choices[d][index[d]], scratch);
      ++d;
    }
    if (d == digits) return true;
    ++index[d];
    decomposition_.Scatter(components[d], choices[d][index[d]], scratch);
  }
}

BigUint ComponentProductEnumerator::Count() const {
  BigUint total = BigUint::One();
  for (const std::vector<DynamicBitset>& options : product_->choices) {
    total *= BigUint(options.size());
  }
  return total;
}

}  // namespace prefrep
