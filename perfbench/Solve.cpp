//===- perfbench/Solve.cpp - Whole-graph solves, closed loop --------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The paper's setting: one ordered kernel runs to completion over a whole
// graph with every core, again and again over a seeded set of sources,
// for the run's length. One workload per kernel, so each kernel's time to
// solution is its own gated metric:
//
//   solve_road       eager with bucket fusion SSSP, 1M-vertex road grid
//   solve_road_lazy  lazy bucket-queue SSSP, same road grid
//   solve_rmat       small-delta eager SSSP, directed RMAT graph
//   solve_kcore      lazy k-core, symmetrized RMAT graph
//
// Only the `graph`, `core`/`runtime` and `algorithms` layers run here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "Trace.h"

#include "algorithms/KCore.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "support/Random.h"

#include <omp.h>

#include <memory>

using namespace graphit;

namespace perfbench {

namespace {

enum class Kernel { SsspRoad, SsspRoadLazy, SsspRmat, KCore };

struct Spec {
  const char *Workload;
  Kernel K;
  const char *ScheduleSpec;
  /// The kernel's time-to-solution metric as README.md names it.
  const char *Metric;
};

const Spec kSpecs[] = {
    {"solve_road", Kernel::SsspRoad, "eager_with_fusion,delta=8192",
     "sssp_road_s"},
    {"solve_road_lazy", Kernel::SsspRoadLazy, "lazy,delta=8192",
     "sssp_road_lazy_s"},
    {"solve_rmat", Kernel::SsspRmat, "eager_with_fusion,delta=2",
     "sssp_rmat_s"},
    {"solve_kcore", Kernel::KCore, "lazy_constant_sum", "kcore_s"},
};

/// Input sizes (see README.md for their footprint against the caches).
constexpr Count kRoadSide = 1000;  // 1M intersections
constexpr int kRmatScale = 19;     // 512k vertices, 16 edges per vertex
constexpr int kKCoreScale = 18;    // 256k vertices before symmetrizing
constexpr int kRmatDegree = 16;
constexpr size_t kNumSources = 16;

Graph generateAndBuild(Kernel K, uint64_t Seed, double &GenSeconds,
                       double &BuildSeconds) {
  const Clock::time_point T0 = Clock::now();
  Count N = 0;
  std::vector<Edge> Edges;
  BuildOptions Opts;
  Opts.BuildInEdges = false;
  if (K == Kernel::SsspRoad || K == Kernel::SsspRoadLazy) {
    RoadNetwork Net = roadGrid(kRoadSide, kRoadSide, subSeed(Seed, 1));
    N = Net.NumNodes;
    Edges = std::move(Net.Edges);
    Opts.Symmetrize = true;
  } else if (K == Kernel::SsspRmat) {
    N = Count{1} << kRmatScale;
    Edges = rmatEdges(kRmatScale, kRmatDegree, subSeed(Seed, 2));
    assignRandomWeights(Edges, 1, 256, subSeed(Seed, 3));
  } else {
    N = Count{1} << kKCoreScale;
    Edges = rmatEdges(kKCoreScale, kRmatDegree, subSeed(Seed, 4));
    Opts.Symmetrize = true;
    Opts.Weighted = false;
  }
  const Clock::time_point T1 = Clock::now();
  Graph G;
  {
    trace::Scope Span("graph.build");
    G = GraphBuilder(Opts).build(N, std::move(Edges));
  }
  const Clock::time_point T2 = Clock::now();
  GenSeconds = secondsBetween(T0, T1);
  BuildSeconds = secondsBetween(T1, T2);
  return G;
}

uint64_t hashVector(const std::vector<Priority> &V) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (Priority P : V)
    H = (H ^ static_cast<uint64_t>(P)) * 0x100000001b3ULL;
  return H;
}

/// One kernel run's outputs and engine counters.
struct RunResult {
  std::vector<Priority> Values; ///< distances or coreness
  OrderedStats Stats;
};

RunResult runKernel(const Graph &G, Kernel K, const Schedule &S,
                    VertexId Source) {
  RunResult R;
  if (K == Kernel::KCore) {
    KCoreResult KR = kCoreDecomposition(G, S);
    R.Values = std::move(KR.Coreness);
    R.Stats = KR.Stats;
  } else {
    SSSPResult SR = deltaSteppingSSSP(G, Source, S);
    R.Values = std::move(SR.Dist);
    R.Stats = SR.Stats;
  }
  return R;
}

/// The negative self-tests: each check must reject a corrupted copy of a
/// verified output.
void selfTestDistanceCheck(const Graph &G, VertexId Source,
                           const std::vector<Priority> &Good, Outcome &Out) {
  VertexId Victim = kInvalidVertex;
  for (VertexId V = 0; V < static_cast<VertexId>(Good.size()); ++V)
    if (V != Source && Good[V] != kInfiniteDistance && G.outDegree(V) > 0) {
      Victim = V;
      break;
    }
  if (Victim == kInvalidVertex) {
    Out.mismatch("self-test: no reached vertex to corrupt");
    return;
  }
  std::vector<Priority> Low = Good;
  Low[Victim] -= 1;
  std::vector<Priority> High = Good;
  High[Victim] += 1;
  std::vector<Priority> Cut = Good;
  Cut[Victim] = kInfiniteDistance;
  if (certifyDistances(G, Source, Low).empty() ||
      certifyDistances(G, Source, High).empty() ||
      certifyDistances(G, Source, Cut).empty())
    Out.mismatch("self-test: distance certificate accepted a corrupted "
                 "distance");
}

void selfTestCorenessCheck(const std::vector<Priority> &Reference,
                           std::vector<Priority> Corrupt, Outcome &Out) {
  // The oracle itself on graphs with known coreness: K5 is a 4-core, a
  // path is a 1-core.
  BuildOptions Sym;
  Sym.Symmetrize = true;
  Sym.Weighted = false;
  const std::vector<Priority> K5 =
      serialCoreness(GraphBuilder(Sym).build(5, completeGraphEdges(5)));
  const std::vector<Priority> P4 =
      serialCoreness(GraphBuilder(Sym).build(4, pathEdges(4)));
  bool OracleOk = K5 == std::vector<Priority>(5, 4) &&
                  P4 == std::vector<Priority>(4, 1);
  Corrupt[Corrupt.size() / 2] += 1;
  if (!OracleOk || Corrupt == Reference)
    Out.mismatch("self-test: coreness check accepted a corrupted coreness");
}

} // namespace

Outcome runSolve(const Config &C) {
  const Spec *Sp = nullptr;
  for (const Spec &S : kSpecs)
    if (C.Workload == S.Workload)
      Sp = &S;
  Outcome Out;
  omp_set_num_threads(C.Threads);
  const Schedule S = Schedule::parse(Sp->ScheduleSpec);
  note("solve: kernel=%s schedule=%s omp_threads=%d", Sp->Workload,
       Sp->ScheduleSpec, C.Threads);

  SetupTimes Setup;
  std::unique_ptr<Graph> G;
  for (int R = 0; R < kSetupRepeats; ++R) {
    G.reset();
    double Gen = 0, Build = 0;
    G = std::make_unique<Graph>(generateAndBuild(Sp->K, C.Seed, Gen, Build));
    Setup.add(Gen, Build, 0, 0);
  }
  Setup.report(Out);
  note("solve: graph vertices=%lld edges=%lld", (long long)G->numNodes(),
       (long long)G->numEdges());

  // Seeded sources with at least one out-edge.
  std::vector<VertexId> Sources;
  SplitMix64 Rng(subSeed(C.Seed, 5));
  while (Sources.size() < kNumSources) {
    VertexId V = static_cast<VertexId>(Rng.nextInt(0, G->numNodes()));
    if (G->outDegree(V) > 0)
      Sources.push_back(V);
  }
  if (Sp->K == Kernel::KCore)
    Sources.assign(1, 0); // no source: every run is the same decomposition

  runKernel(*G, Sp->K, S, Sources[0]); // warm-up: thread pool, first touch

  // The timed window: whole runs only, each from the next source in turn.
  // The first result per source is kept for verification; every later
  // run from that source must reproduce it exactly.
  std::vector<double> Micros;
  std::vector<std::vector<Priority>> Kept(Sources.size());
  std::vector<uint64_t> KeptHash(Sources.size(), 0);
  uint64_t Diverged = 0;
  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(C.Seconds));
  for (size_t I = 0; Clock::now() < End; ++I) {
    const size_t Slot = I % Sources.size();
    const Clock::time_point T0 = Clock::now();
    RunResult R = runKernel(*G, Sp->K, S, Sources[Slot]);
    const Clock::time_point T1 = Clock::now();
    if (trace::enabled()) {
      Count Reached = 0;
      for (Priority P : R.Values)
        Reached += P != kInfiniteDistance;
      trace::record("algorithms.solve", T0, T1, 0, I + 1,
                    {static_cast<double>(R.Stats.Rounds),
                     static_cast<double>(R.Stats.FusedRounds),
                     static_cast<double>(R.Stats.OverflowRebuckets),
                     static_cast<double>(R.Stats.VerticesProcessed) /
                         static_cast<double>(std::max<Count>(Reached, 1))});
    }
    Micros.push_back(microsBetween(T0, T1));
    ++Out.Attempted;
    const uint64_t H = hashVector(R.Values);
    if (Kept[Slot].empty()) {
      Kept[Slot] = std::move(R.Values);
      KeptHash[Slot] = H;
    } else if (H != KeptHash[Slot]) {
      ++Diverged;
    }
  }

  Out.P50Micros = median(Micros);
  Out.TailMicros = percentile(Micros, 90);
  // Solves per second at the median time to solution: a mean would let a
  // few solves stalled by host preemption move the rate.
  Out.RatePerSecond = 1e6 / Out.P50Micros;
  note("solve: runs=%zu %s=%.6f s (median) p90=%.6f s solves_per_s=%.3f",
       Micros.size(), Sp->Metric, Out.P50Micros / 1e6, Out.TailMicros / 1e6,
       Out.RatePerSecond);

  // Verification, after the window.
  if (Diverged)
    Out.mismatch(std::to_string(Diverged) +
                 " runs differ from the first run from the same source");
  if (Sp->K == Kernel::KCore) {
    const std::vector<Priority> Ref = serialCoreness(*G);
    if (Kept[0] != Ref)
      Out.mismatch("coreness differs from the serial bucket peel");
    selfTestCorenessCheck(Ref, Kept[0], Out);
  } else {
    for (size_t Slot = 0; Slot < Sources.size(); ++Slot) {
      if (Kept[Slot].empty())
        continue;
      std::string Why = certifyDistances(*G, Sources[Slot], Kept[Slot]);
      if (!Why.empty())
        Out.mismatch("distance certificate, source " +
                     std::to_string(Sources[Slot]) + ": " + Why);
    }
    selfTestDistanceCheck(*G, Sources[0], Kept[0], Out);
  }
  note("solve: verified %s (sources kept=%zu)",
       Out.Correct ? "ok" : "MISMATCH", Sources.size());

  if (trace::enabled()) {
    auto Stats = trace::reduce(trace::collect());
    const trace::NameStats &K = Stats["algorithms.solve"];
    std::vector<double> Col[4];
    for (const auto &Cs : K.Counters)
      for (int J = 0; J < 4; ++J)
        Col[J].push_back(Cs[static_cast<size_t>(J)]);
    Out.Layer["solve.rounds"] = median(Col[0]);
    Out.Layer["solve.fused_rounds"] = median(Col[1]);
    Out.Layer["solve.overflow_rebuckets"] = median(Col[2]);
    Out.Layer["solve.processed_per_reached"] = median(Col[3]);
    Out.Layer["solve.kernel_self_us.p50"] = median(K.SelfMicros);
  }
  return Out;
}

} // namespace perfbench
