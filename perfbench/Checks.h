//===- perfbench/Checks.h - Independent output checks -----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of the program's outputs that share no code with the program's
/// algorithms: an edge-relaxation certificate for distances, a serial
/// bucket peel for coreness, a serial Dijkstra for point queries, and an
/// edge-set model of an update stream for the live store's adjacency.
/// Each check returns "" on success and a description of the first
/// violation otherwise. Every workload also feeds each check it uses a
/// deliberately corrupted input and requires it to fail, so no check can
/// pass vacuously.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_PERFBENCH_CHECKS_H
#define GRAPHIT_PERFBENCH_CHECKS_H

#include "graph/DeltaGraph.h"
#include "graph/Graph.h"

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using graphit::Count;
using graphit::Priority;
using graphit::VertexId;
using graphit::Weight;
using graphit::kInfiniteDistance;

/// Edge-relaxation certificate for single-source distances on a graph
/// with positive weights: d[source] = 0; every edge (u, v, w) out of a
/// reached u satisfies d[v] <= d[u] + w (so unreached means unreachable);
/// and every reached v other than the source has a tight in-edge
/// (d[u] + w == d[v]). Together these pin d to the exact distances.
template <typename GraphT>
std::string certifyDistances(const GraphT &G, VertexId Source,
                             const std::vector<Priority> &Dist) {
  const Count N = G.numNodes();
  if (static_cast<Count>(Dist.size()) < N)
    return "distance vector shorter than the vertex set";
  if (Dist[Source] != 0)
    return "source distance is not 0";
  std::vector<uint8_t> Tight(static_cast<size_t>(N), 0);
  Tight[Source] = 1;
  for (VertexId U = 0; U < static_cast<VertexId>(N); ++U) {
    const Priority DU = Dist[U];
    if (DU == kInfiniteDistance)
      continue;
    if (DU < 0)
      return "negative distance at vertex " + std::to_string(U);
    for (graphit::WNode E : G.outNeighbors(U)) {
      if (E.W <= 0)
        return "non-positive edge weight";
      const Priority Via = DU + E.W;
      if (Dist[E.V] > Via)
        return "edge " + std::to_string(U) + "->" + std::to_string(E.V) +
               " relaxes further (d=" + std::to_string(Dist[E.V]) +
               ", via=" + std::to_string(Via) + ")";
      if (Dist[E.V] == Via)
        Tight[E.V] = 1;
    }
  }
  for (VertexId V = 0; V < static_cast<VertexId>(N); ++V)
    if (Dist[V] != kInfiniteDistance && !Tight[V])
      return "vertex " + std::to_string(V) + " has no tight in-edge";
  return "";
}

/// Serial Batagelj-Zaversnik bucket peel over a symmetric graph:
/// repeatedly removes a vertex of minimum remaining degree; its coreness
/// is the largest minimum seen so far.
std::vector<Priority> serialCoreness(const graphit::Graph &G);

/// Serial binary-heap Dijkstra from \p Source, stopping once \p Target is
/// settled. Scratch arrays are reused across calls (epoch-stamped).
class Dijkstra {
public:
  template <typename GraphT>
  Priority pointToPoint(const GraphT &G, VertexId Source, VertexId Target) {
    const size_t N = static_cast<size_t>(G.numNodes());
    if (Stamp.size() < N) {
      Stamp.assign(N, 0);
      Dist.assign(N, kInfiniteDistance);
    }
    ++Epoch;
    using Item = std::pair<Priority, VertexId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Heap;
    set(Source, 0);
    Heap.push({0, Source});
    while (!Heap.empty()) {
      auto [D, U] = Heap.top();
      Heap.pop();
      if (D != get(U))
        continue;
      if (U == Target)
        return D;
      for (graphit::WNode E : G.outNeighbors(U))
        if (D + E.W < get(E.V)) {
          set(E.V, D + E.W);
          Heap.push({D + E.W, E.V});
        }
    }
    return kInfiniteDistance;
  }

private:
  Priority get(VertexId V) const {
    return Stamp[V] == Epoch ? Dist[V] : kInfiniteDistance;
  }
  void set(VertexId V, Priority D) {
    Stamp[V] = Epoch;
    Dist[V] = D;
  }
  std::vector<uint32_t> Stamp;
  std::vector<Priority> Dist;
  uint32_t Epoch = 0;
};

/// The benchmark's own model of a symmetric live graph under an update
/// stream: the immutable base plus every undirected edge the stream
/// touched (weight, or absent). Used both to pick the next updates and to
/// check the store's final adjacency.
class EdgeModel {
public:
  explicit EdgeModel(const graphit::Graph &G) : Base(&G) {}

  /// Applies one requested update with the documented store semantics
  /// (upsert inserts or overwrites, delete removes; both directions).
  void apply(const graphit::EdgeUpdate &U);

  /// Current neighbors of \p U with weights, sorted by neighbor id.
  std::vector<graphit::WNode> row(VertexId U) const;

  /// Compares every vertex's out-row of \p View against the model.
  template <typename ViewT> std::string compare(const ViewT &View) const {
    const Count N = Base->numNodes();
    if (View.numNodes() != N)
      return "vertex count differs from the model";
    Count Edges = 0;
    for (VertexId U = 0; U < static_cast<VertexId>(N); ++U) {
      std::vector<graphit::WNode> Want = row(U);
      std::vector<graphit::WNode> Got;
      for (graphit::WNode E : View.outNeighbors(U))
        Got.push_back(E);
      std::sort(Got.begin(), Got.end(), graphit::adjacencyRowLess);
      Edges += static_cast<Count>(Got.size());
      if (Got.size() != Want.size())
        return "vertex " + std::to_string(U) + " has " +
               std::to_string(Got.size()) + " edges, model has " +
               std::to_string(Want.size());
      for (size_t I = 0; I < Got.size(); ++I)
        if (Got[I].V != Want[I].V || Got[I].W != Want[I].W)
          return "vertex " + std::to_string(U) + " adjacency differs "
                 "from the model";
    }
    if (Edges != View.numEdges())
      return "edge count differs from the rows";
    return "";
  }

  /// Undirected edges the stream has touched.
  size_t touched() const { return Touched.size(); }

private:
  static uint64_t key(VertexId U, VertexId V) {
    if (U > V)
      std::swap(U, V);
    return (static_cast<uint64_t>(U) << 32) | V;
  }
  const graphit::Graph *Base;
  std::unordered_map<uint64_t, Weight> Touched;
  /// Per vertex, the touched partners (so row() stays O(degree)).
  std::unordered_map<VertexId, std::vector<VertexId>> Partners;
};

} // namespace perfbench

#endif // GRAPHIT_PERFBENCH_CHECKS_H
