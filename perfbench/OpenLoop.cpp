//===- perfbench/OpenLoop.cpp - Shared pieces of the live workloads -------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "OpenLoop.h"

#include "graph/Builder.h"
#include "graph/Generators.h"

#include <sched.h>

using namespace graphit;

namespace perfbench {

IdleSpinners::IdleSpinners(int Cores) {
  for (int I = 0; I < Cores; ++I)
    Threads.emplace_back([this] {
      sched_param P{};
      if (sched_setscheduler(0, SCHED_IDLE, &P) != 0)
        return; // no idle class: leave the core alone
      while (!Stop.load(std::memory_order_relaxed))
        __builtin_ia32_pause();
    });
}

IdleSpinners::~IdleSpinners() {
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
}

Graph roadGraph(Count Side, uint64_t Seed, double &GenSeconds,
                double &BuildSeconds) {
  const Clock::time_point T0 = Clock::now();
  RoadNetwork Net = roadGrid(Side, Side, Seed);
  const Clock::time_point T1 = Clock::now();
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Graph G = GraphBuilder(Opts).build(Net.NumNodes, std::move(Net.Edges),
                                     std::move(Net.Coords));
  GenSeconds = secondsBetween(T0, T1);
  BuildSeconds = secondsBetween(T1, Clock::now());
  return G;
}

} // namespace perfbench
