//===- perfbench/Serve.cpp - Open-loop point queries with a writer --------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The `serve` workload: open-loop Poisson point queries from one generator
// thread into a QueryEngine over a SnapshotStore on a ~500k-vertex road
// grid, while a light writer publishes small incident batches every 50 ms.
//
//  * Traffic: the local PPSP/A* routing mix under the engine's eager
//    schedule; 1 in 32 arrivals (all bulk) carries a lazy per-query
//    schedule. Every 4th arrival is premium (importance 3 -> class 0), the
//    rest bulk (class 3). Admission shedding, degradation and the
//    controller are off, so no query fails.
//  * Rates: a fixed low step (kLowRate) gives the light-load latency; then
//    a fixed geometric ladder (kLadder, x1.25 per step) raises the rate
//    until two steps in a row miss a limit. Each step's class p99 (premium,
//    bulk) is taken against its limit (kPremiumLimit, kBulkLimit); a step
//    with a failed query counts as infinitely late, and one whose queue
//    took longer than the bulk limit to drain after its last arrival (a
//    growing backlog) counts as late by its drain time.
//
// End-to-end: p50_us is the median at the low step (its p99 is reported
// beside it). rate_per_s is the highest rate that meets both limits: the
// bracket below the ladder's final run of steps over a limit is bisected
// twice, and each class's crossing is interpolated between the bracket's
// steps, linearly in 1 / p99.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "OpenLoop.h"

#include "graph/Builder.h"
#include "graph/Generators.h"

#include <atomic>
#include <cmath>
#include <iterator>
#include <map>

using namespace graphit;
using namespace graphit::service;

namespace perfbench {

namespace {

constexpr Count kServeSide = 708; // ~500k intersections
constexpr double kLowRate = 1000;
/// Latency limits for rate_per_s (due time to collected result).
constexpr double kPremiumLimitMicros = 25000;
constexpr double kBulkLimitMicros = 50000;
/// The low step takes this share of the run; the ladder steps share the
/// rest equally.
constexpr double kLowShare = 0.4;
constexpr double kLadder[] = {1250, 1563, 1953, 2441, 3052, 3815,
                              4768, 5960, 7451, 9313, 11642};
/// Bisection steps inside the final bracket.
constexpr int kRefineSteps = 2;
constexpr int kWriterPeriodMillis = 50;
constexpr Count kWriterBatch = 8;

/// Weight-only incident batch on edges of the original graph: each picked
/// edge gets 1x, 2x or 3x its original weight (a closure, or a reopening
/// back to free flow). Weights never drop below the original, so the A*
/// coordinate bound stays admissible.
std::vector<EdgeUpdate> incidentBatch(const Graph &Original, SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  while (static_cast<Count>(Batch.size()) < kWriterBatch) {
    const VertexId U =
        static_cast<VertexId>(Rng.nextInt(0, Original.numNodes()));
    const Graph::NeighborRange Row = Original.outNeighbors(U);
    if (Row.size() == 0)
      continue;
    const Count Pick = Rng.nextInt(0, Row.size());
    Batch.push_back(EdgeUpdate{
        U, Row.id(Pick),
        static_cast<Weight>(Row.weight(Pick) * Rng.nextInt(1, 4)),
        UpdateKind::Upsert});
  }
  return Batch;
}

/// One step reduced to what the SLO reads: each class's p99, made
/// infinite by a failed query and at least the drain time when the queue
/// outlasted the bulk limit.
struct StepSummary {
  double Rate = 0, CompletedRate = 0;
  double PremiumP99 = 0, BulkP99 = 0;
};

StepSummary summarize(const StepResult &S) {
  StepSummary Sum;
  Sum.Rate = S.OfferedRate;
  Sum.CompletedRate = S.CompletedRate;
  Sum.PremiumP99 = percentile(
      latencies(S.Records, [](const QueryRecord &R) { return R.Premium; }),
      99);
  Sum.BulkP99 = percentile(
      latencies(S.Records, [](const QueryRecord &R) { return !R.Premium; }),
      99);
  if (S.DrainMicros > kBulkLimitMicros) {
    Sum.PremiumP99 = std::max(Sum.PremiumP99, S.DrainMicros);
    Sum.BulkP99 = std::max(Sum.BulkP99, S.DrainMicros);
  }
  if (S.Failed || S.Records.empty())
    Sum.PremiumP99 = Sum.BulkP99 = HUGE_VAL;
  return Sum;
}

bool meetsSlo(const StepSummary &S) {
  return S.PremiumP99 <= kPremiumLimitMicros && S.BulkP99 <= kBulkLimitMicros;
}

/// The offered rate at which one class's p99 reaches \p Limit between a
/// step that meets it (\p Under) and a step above it. Near saturation the
/// queueing delay grows as 1 / (capacity - rate), so the rate is
/// interpolated linearly in 1 / p99.
double crossing(const StepSummary &Under, const StepSummary &Over,
                double StepSummary::*P99, double Limit) {
  if (Over.*P99 <= Limit)
    return Over.Rate; // this class met its limit at both steps
  const double F = (1 / Under.*P99 - 1 / Limit) /
                   (1 / Under.*P99 - 1 / Over.*P99);
  return Under.Rate + F * (Over.Rate - Under.Rate);
}

} // namespace

Outcome runServe(const Config &C) {
  Outcome Out;
  const int Workers = std::max(1, C.Threads - 2);
  const int Collectors = Workers;
  note("serve: threads generator=1(sleeps, spins the last %lldus) "
       "collectors=%d(blocked in tryCollect) "
       "writer=1(one batch per %dms) workers=%d omp_per_query=1; busy <= "
       "workers + 2 = %d of %d cores",
       static_cast<long long>(kSpinMicros.count()), Collectors,
       kWriterPeriodMillis, Workers, Workers + 2, C.Threads);
  note("serve: plus %d idle-class spinner threads that keep the cores from "
       "halting (they yield to every other thread)",
       C.Threads);
  note("serve: low step %.0f qps; SLO premium p99 <= %.0f us, bulk p99 <= "
       "%.0f us",
       kLowRate, kPremiumLimitMicros, kBulkLimitMicros);

  QueryEngine::Options EO;
  EO.NumWorkers = Workers;
  EO.DefaultSchedule = Schedule::parse("eager_with_fusion,delta=1024");
  EO.OmpThreadsPerQuery = 1;
  EO.MaxBatchDelayMicros = 400;
  const Schedule Lazy = Schedule::parse("lazy,delta=1024");

  SetupTimes Setup;
  std::shared_ptr<const Graph> Original;
  std::unique_ptr<SnapshotStore> Store; // declared first: outlives Engine
  std::unique_ptr<QueryEngine> Engine;
  for (int R = 0; R < kSetupRepeats; ++R) {
    Engine.reset();
    Store.reset();
    double Gen = 0, Build = 0;
    Graph G = roadGraph(kServeSide, subSeed(C.Seed, 11), Gen, Build);
    Original = std::make_shared<const Graph>(G); // the writer's edge pool
    const Clock::time_point T0 = Clock::now();
    Store = std::make_unique<SnapshotStore>(std::move(G));
    const Clock::time_point T1 = Clock::now();
    Engine = std::make_unique<QueryEngine>(*Store, EO);
    Setup.add(Gen, Build, secondsBetween(T0, T1),
              secondsBetween(T1, Clock::now()));
  }
  Setup.report(Out);

  const Count Window = std::max<Count>(kServeSide / 24, 8);
  const std::vector<std::pair<VertexId, VertexId>> Pairs =
      localGridQueryPairs(kServeSide, kServeSide, Window, 1 << 16,
                          subSeed(C.Seed, 12));
  uint64_t NextArrival = 0;
  auto Next = [&](uint64_t) {
    const uint64_t G = NextArrival++;
    Arrival A;
    A.Q.Kind = (G & 1) ? QueryKind::AStar : QueryKind::PPSP;
    A.Q.Source = Pairs[G % Pairs.size()].first;
    A.Q.Target = Pairs[G % Pairs.size()].second;
    A.Premium = G % 4 == 0;
    A.Lazy = G % 32 == 3;
    A.Q.Importance = A.Premium ? 3 : 0;
    if (A.Lazy)
      A.Q.Sched = Lazy;
    return A;
  };

  // The writer publishes one small batch per period for the whole run and
  // retains every published snapshot for verification (read only after
  // the writer is joined).
  std::map<uint64_t, SnapshotStore::Snapshot> Versions;
  Versions[Store->version()] = Store->current();
  std::mutex StopMu;
  std::condition_variable StopCv;
  bool Stop = false;
  uint64_t Batches = 0;
  std::thread Writer([&] {
    SplitMix64 Rng(subSeed(C.Seed, 13));
    std::unique_lock<std::mutex> Lock(StopMu);
    while (!StopCv.wait_for(Lock,
                            std::chrono::milliseconds(kWriterPeriodMillis),
                            [&] { return Stop; })) {
      std::vector<EdgeUpdate> Batch = incidentBatch(*Original, Rng);
      SnapshotStore::ApplyResult R;
      {
        trace::Scope Span("service.apply", ++Batches);
        R = Engine->applyUpdates(Batch);
      }
      Versions[R.Version] = R.Snap;
    }
  });

  auto Spinners = std::make_unique<IdleSpinners>(C.Threads);
  // Warm-up: pooled states, first touch (not measured).
  runOpenLoopStep(*Engine, *Store, kLowRate, 0.2, subSeed(C.Seed, 14),
                  Collectors, -1, Next);

  std::vector<StepResult> Steps;
  std::vector<StepSummary> Sums;
  auto Run = [&](double Rate, double Seconds) {
    Steps.push_back(runOpenLoopStep(
        *Engine, *Store, Rate, Seconds, subSeed(C.Seed, 100 + Steps.size()),
        Collectors, static_cast<int>(Steps.size()), Next));
    Sums.push_back(summarize(Steps.back()));
    const StepSummary &S = Sums.back();
    note("serve: step %zu rate=%.0f n=%zu premium_p99_us=%.0f "
         "bulk_p99_us=%.0f drain_us=%.0f completed_qps=%.0f depth_max=%zu",
         Steps.size() - 1, Rate, Steps.back().Records.size(), S.PremiumP99,
         S.BulkP99, Steps.back().DrainMicros, S.CompletedRate,
         Steps.back().MaxQueueDepth);
    trace::record("serve.step", Clock::now(), Clock::now(), 0, Steps.size(),
                  {Rate, S.PremiumP99, S.BulkP99,
                   static_cast<double>(Steps.back().MaxQueueDepth),
                   S.CompletedRate});
    return meetsSlo(S);
  };

  Run(kLowRate, C.Seconds * kLowShare);
  const double StepSeconds = C.Seconds * (1 - kLowShare) /
                             static_cast<double>(std::size(kLadder) +
                                                 kRefineSteps);
  // The ladder ends after two consecutive steps over a limit.
  int Misses = 0;
  for (double Rate : kLadder) {
    Misses = Run(Rate, StepSeconds) ? 0 : Misses + 1;
    if (Misses == 2)
      break;
  }
  // The knee sits below the ladder's final run of steps over a limit (a
  // burst of host interference at one lower step does not end the
  // search). Bisect that bracket, then interpolate each class's crossing.
  size_t Over = Sums.size();
  while (Over > 0 && !meetsSlo(Sums[Over - 1]))
    --Over;
  if (Over == Sums.size()) {
    Out.RatePerSecond = Sums.back().Rate; // never missed
  } else if (Over == 0) {
    const StepSummary &S = Sums[0]; // even the low step missed
    Out.RatePerSecond = S.Rate *
                        std::min(kPremiumLimitMicros / S.PremiumP99,
                                 kBulkLimitMicros / S.BulkP99);
  } else {
    StepSummary Under = Sums[Over - 1], Above = Sums[Over];
    for (int I = 0; I < kRefineSteps; ++I) {
      const double Mid = std::sqrt(Under.Rate * Above.Rate);
      const bool Met = Run(Mid, StepSeconds);
      (Met ? Under : Above) = Sums.back();
    }
    Out.RatePerSecond = std::min(
        crossing(Under, Above, &StepSummary::PremiumP99, kPremiumLimitMicros),
        crossing(Under, Above, &StepSummary::BulkP99, kBulkLimitMicros));
  }

  {
    std::lock_guard<std::mutex> Lock(StopMu);
    Stop = true;
  }
  StopCv.notify_all();
  Writer.join();
  Spinners.reset();

  // End-to-end metrics.
  const std::vector<QueryRecord> &LowRecs = Steps[0].Records;
  Out.P50Micros =
      median(latencies(LowRecs, [](const QueryRecord &) { return true; }));
  Out.TailMicros =
      percentile(latencies(LowRecs, [](const QueryRecord &) { return true; }),
                 99);
  for (const StepResult &S : Steps) {
    Out.Attempted += S.Records.size();
    Out.Failed += S.Failed;
  }
  note("serve: low step n=%zu query_p50_us=%.1f us query_p99_us=%.1f us; "
       "max_qps_at_slo=%.1f qps; writer batches=%llu",
       LowRecs.size(), Out.P50Micros, Out.TailMicros, Out.RatePerSecond,
       static_cast<unsigned long long>(Batches));

  // Verification: every Ok answer bracketed to one version is compared
  // with a serial Dijkstra on that version's retained snapshot.
  std::vector<const QueryRecord *> ToCheck;
  uint64_t Ok = 0;
  for (const StepResult &S : Steps)
    for (const QueryRecord &R : S.Records) {
      Ok += R.Ok;
      if (R.Ok && R.VersionBefore == R.VersionAfter)
        ToCheck.push_back(&R);
    }
  std::atomic<uint64_t> Wrong{0};
  std::atomic<size_t> Cursor{0};
  std::vector<std::thread> Checkers;
  for (int T = 0; T < C.Threads; ++T)
    Checkers.emplace_back([&] {
      Dijkstra D;
      for (size_t I; (I = Cursor.fetch_add(1)) < ToCheck.size();) {
        const QueryRecord &R = *ToCheck[I];
        if (D.pointToPoint(*Versions.at(R.VersionBefore), R.Source,
                           R.Target) != R.Dist)
          Wrong.fetch_add(1);
      }
    });
  for (std::thread &T : Checkers)
    T.join();
  if (Wrong)
    Out.mismatch(std::to_string(Wrong.load()) + " of " +
                 std::to_string(ToCheck.size()) +
                 " served answers differ from serial Dijkstra");
  // Negative self-test: a corrupted answer must be rejected, and the
  // oracle must get a known graph right.
  {
    Dijkstra D;
    BuildOptions Sym;
    Sym.Symmetrize = true;
    const Graph P = GraphBuilder(Sym).build(5, pathEdges(4));
    bool Ok3 = D.pointToPoint(P, 0, 3) == 3 &&
               D.pointToPoint(P, 0, 4) == kInfiniteDistance;
    bool Caught = true;
    if (!ToCheck.empty()) {
      const QueryRecord &R = *ToCheck.front();
      Caught = D.pointToPoint(*Versions.at(R.VersionBefore), R.Source,
                              R.Target) != R.Dist + 1;
    }
    if (!Ok3 || !Caught || ToCheck.empty())
      Out.mismatch("self-test: served-answer check accepted a corrupted "
                   "answer or verified nothing");
  }
  const double Share =
      Ok ? static_cast<double>(ToCheck.size()) / static_cast<double>(Ok) : 0;
  note("serve: queries attempted=%llu failed=%llu",
       static_cast<unsigned long long>(Out.Attempted),
       static_cast<unsigned long long>(Out.Failed));
  note("serve: verified %zu of %llu ok answers (%.1f%%) against serial "
       "Dijkstra: %s",
       ToCheck.size(), static_cast<unsigned long long>(Ok), 100 * Share,
       Wrong ? "MISMATCH" : "ok");

  if (trace::enabled()) {
    auto Stats = trace::reduce(trace::collect());
    std::vector<double> Engine0, Lazy0, Wait0, Rounds0, Proc0;
    for (const auto &Cs : Stats["service.collect"].Counters) {
      if (Cs[5] != 0) // low step only
        continue;
      Engine0.push_back(Cs[0]);
      Rounds0.push_back(Cs[1]);
      Proc0.push_back(Cs[2]);
      if (Cs[3] != 0)
        Lazy0.push_back(Cs[0]);
      Wait0.push_back(Cs[4] - Cs[0]);
    }
    auto Mean = [](const std::vector<double> &V) {
      double S = 0;
      for (double X : V)
        S += X;
      return V.empty() ? 0 : S / static_cast<double>(V.size());
    };
    Out.Layer["serve.engine_us.p50"] = median(Engine0);
    Out.Layer["serve.engine_us.p99"] = percentile(Engine0, 99);
    Out.Layer["serve.rounds_per_query"] = Mean(Rounds0);
    Out.Layer["serve.processed_per_query"] = Mean(Proc0);
    Out.Layer["serve.lazy_engine_us.p50"] = median(Lazy0);
    Out.Layer["serve.wait_us.p50"] = median(Wait0);
    Out.Layer["serve.wait_us.p99"] = percentile(Wait0, 99);
    Out.Layer["serve.submit_us.p99"] =
        percentile(Stats["service.submit"].DurationMicros, 99);
    Out.Layer["serve.gen_late_us.p99"] =
        percentile(Stats["serve.arrival"].SelfMicros, 99);
    // Class p99s at the highest ladder step under both limits.
    double Depth = 0;
    for (const auto &Cs : Stats["serve.step"].Counters) {
      Depth = std::max(Depth, Cs[3]);
      if (Cs[1] <= kPremiumLimitMicros && Cs[2] <= kBulkLimitMicros) {
        Out.Layer["serve.premium_p99_us"] = Cs[1];
        Out.Layer["serve.bulk_p99_us"] = Cs[2];
      }
    }
    Out.Layer["serve.queue_depth.max"] = Depth;
    Out.Layer["serve.batch_window_max_us"] =
        static_cast<double>(Engine->maxBatchWindowMicros());
    Out.Layer["serve.verified_share"] = Share;
  }
  return Out;
}

} // namespace perfbench
