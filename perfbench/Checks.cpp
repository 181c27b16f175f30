//===- perfbench/Checks.cpp - Independent output checks -------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include <algorithm>

namespace perfbench {

std::vector<Priority> serialCoreness(const graphit::Graph &G) {
  const size_t N = static_cast<size_t>(G.numNodes());
  std::vector<Count> Deg(N);
  Count MaxDeg = 0;
  for (size_t V = 0; V < N; ++V) {
    Deg[V] = G.outDegree(static_cast<VertexId>(V));
    MaxDeg = std::max(MaxDeg, Deg[V]);
  }
  // Vertices sorted by degree (counting sort); Start[d] is the first slot
  // of degree d, Pos[v] the slot of v.
  std::vector<size_t> Start(static_cast<size_t>(MaxDeg) + 2, 0);
  for (size_t V = 0; V < N; ++V)
    ++Start[static_cast<size_t>(Deg[V]) + 1];
  for (size_t D = 1; D < Start.size(); ++D)
    Start[D] += Start[D - 1];
  std::vector<VertexId> Order(N);
  std::vector<size_t> Pos(N);
  {
    std::vector<size_t> Fill(Start.begin(), Start.end() - 1);
    for (size_t V = 0; V < N; ++V) {
      Pos[V] = Fill[static_cast<size_t>(Deg[V])]++;
      Order[Pos[V]] = static_cast<VertexId>(V);
    }
  }
  std::vector<Priority> Core(N, 0);
  for (size_t I = 0; I < N; ++I) {
    const VertexId V = Order[I];
    Core[V] = Deg[V];
    for (graphit::WNode E : G.outNeighbors(V)) {
      const VertexId U = E.V;
      if (Deg[U] <= Deg[V])
        continue;
      // Move U to the front of its degree bin, then shrink the bin.
      const size_t DU = static_cast<size_t>(Deg[U]);
      const size_t Front = Start[DU];
      const VertexId W = Order[Front];
      if (W != U) {
        std::swap(Order[Pos[U]], Order[Front]);
        Pos[W] = Pos[U];
        Pos[U] = Front;
      }
      ++Start[DU];
      --Deg[U];
    }
  }
  return Core;
}

void EdgeModel::apply(const graphit::EdgeUpdate &U) {
  if (U.Src == U.Dst)
    return;
  const uint64_t K = key(U.Src, U.Dst);
  const bool Seen = Touched.count(K) != 0;
  Touched[K] = U.Kind == graphit::UpdateKind::Delete ? graphit::kAbsentEdge
                                                     : U.W;
  if (!Seen) {
    Partners[U.Src].push_back(U.Dst);
    Partners[U.Dst].push_back(U.Src);
  }
}

std::vector<graphit::WNode> EdgeModel::row(VertexId U) const {
  std::vector<graphit::WNode> Out;
  for (graphit::WNode E : Base->outNeighbors(U))
    if (!Touched.count(key(U, E.V)))
      Out.push_back(E);
  auto It = Partners.find(U);
  if (It != Partners.end())
    for (VertexId V : It->second) {
      const Weight W = Touched.at(key(U, V));
      if (W != graphit::kAbsentEdge)
        Out.push_back(graphit::WNode{V, W});
    }
  std::sort(Out.begin(), Out.end(), graphit::adjacencyRowLess);
  return Out;
}

} // namespace perfbench
