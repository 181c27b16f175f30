//===- perfbench/LiveWrite.cpp - Closed-loop writes beside depot reads ----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The `live_write` workload: the serving layers used the other way round.
// One closed-loop writer pushes mixed incident batches (closures,
// reopenings, deletes, shortcut inserts) through
// ShardedQueryEngine::applyUpdates over a ShardedSnapshotStore whose
// per-shard folds trip several times per run; the engine keeps a hot-source
// cache of depot states, so every apply also repairs each depot's SSSP
// solution. Beside it, a modest open-loop stream of depot PPSP queries
// reads through the hot cache.
//
// End-to-end: p50_us is the median of one applyUpdates call (its p99 is
// reported beside it); rate_per_s is edge updates applied per second. The traced run
// additionally replays the recorded batch stream through a fresh store's
// applyUpdates and repairAfterUpdates to split the apply into its store and
// repair parts.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "OpenLoop.h"

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/SSSP.h"

#include <atomic>

using namespace graphit;
using namespace graphit::service;

namespace perfbench {

namespace {

constexpr Count kSide = 708; // ~500k intersections
constexpr int kDepots = 4;
constexpr Count kWriteBatch = 32;
constexpr double kDepotRate = 50;
/// Depot queries target an intersection within this many rows and
/// columns of the depot (a delivery area).
constexpr Count kDepotWindow = kSide / 16;
constexpr Weight kMaxWeight = 1 << 20;
constexpr uint64_t kReplayBatches = 2000;

ShardedSnapshotStore::Options storeOptions() {
  ShardedSnapshotStore::Options O;
  O.NumShards = 8;
  // Each shard folds once its overlay passes 1% of its base edges:
  // a few folds per shard in a ten-second run.
  O.CompactionThreshold = 0.01;
  O.MinOverlayEdges = 256;
  return O;
}

/// One mixed incident batch drawn from the model's current graph, applied
/// to the model as it is drawn: 40% closures (3x weight), 40% reopenings
/// (a third of the weight, at least 100), 10% deletes and 10% new diagonal
/// shortcuts.
std::vector<EdgeUpdate> mixedBatch(EdgeModel &Model, Count Side,
                                   SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  while (static_cast<Count>(Batch.size()) < kWriteBatch) {
    const int Action = static_cast<int>(Rng.nextInt(0, 10));
    EdgeUpdate U;
    if (Action == 9) {
      const Count R = Rng.nextInt(0, Side - 1), C = Rng.nextInt(0, Side - 1);
      U = EdgeUpdate{static_cast<VertexId>(R * Side + C),
                     static_cast<VertexId>((R + 1) * Side + C + 1),
                     static_cast<Weight>(Rng.nextInt(200, 400)),
                     UpdateKind::Upsert};
    } else {
      const VertexId V = static_cast<VertexId>(Rng.nextInt(0, Side * Side));
      const std::vector<WNode> Row = Model.row(V);
      if (Row.empty())
        continue;
      const WNode E = Row[static_cast<size_t>(
          Rng.nextInt(0, static_cast<int64_t>(Row.size())))];
      if (Action == 8)
        U = EdgeUpdate{V, E.V, 0, UpdateKind::Delete};
      else if (Action < 4)
        U = EdgeUpdate{V, E.V, std::min(kMaxWeight, E.W * 3),
                       UpdateKind::Upsert};
      else
        U = EdgeUpdate{V, E.V, std::max<Weight>(100, E.W / 3),
                       UpdateKind::Upsert};
    }
    Model.apply(U);
    Batch.push_back(U);
  }
  return Batch;
}

/// Sum of every shard's overlay edges in one pinned view.
Count overlayEdges(const ShardedDeltaView &V) {
  Count Sum = 0;
  for (int S = 0; S < V.numShards(); ++S)
    Sum += V.shard(S).overlayEdges();
  return Sum;
}

/// Distances from \p Depot as the engine serves them (the hot state),
/// expanded to a dense vector for the certificate.
std::vector<Priority> servedDistances(ShardedQueryEngine &Engine,
                                      VertexId Depot, Count N) {
  Query Q;
  Q.Kind = QueryKind::SSSP;
  Q.Source = Depot;
  Q.CollectReached = true;
  QueryResult R = Engine.runBatch({Q})[0];
  std::vector<Priority> Dist(static_cast<size_t>(N), kInfiniteDistance);
  for (const auto &[V, D] : R.Reached)
    Dist[V] = D;
  return Dist;
}

} // namespace

Outcome runLiveWrite(const Config &C) {
  Outcome Out;
  const int Workers = std::max(1, C.Threads - 2);
  note("live_write: threads writer=1(closed loop) generator=1 collectors=2"
       "(blocked) workers=%d omp_per_query=1; busy <= workers + 2 = %d of "
       "%d cores, plus %d idle-class spinners",
       Workers, Workers + 2, C.Threads, C.Threads);

  ShardedQueryEngine::Options EO;
  EO.NumWorkers = Workers;
  EO.DefaultSchedule = Schedule::parse("eager_with_fusion,delta=1024");
  EO.HotSourceCapacity = kDepots;

  SetupTimes Setup;
  std::shared_ptr<const Graph> Original;
  std::unique_ptr<ShardedSnapshotStore> Store; // outlives Engine
  std::unique_ptr<ShardedQueryEngine> Engine;
  for (int R = 0; R < kSetupRepeats; ++R) {
    Engine.reset();
    Store.reset();
    double Gen = 0, Build = 0;
    Graph G = roadGraph(kSide, subSeed(C.Seed, 21), Gen, Build);
    Original = std::make_shared<const Graph>(G); // the model's base
    const Clock::time_point T0 = Clock::now();
    Store = std::make_unique<ShardedSnapshotStore>(std::move(G),
                                                   storeOptions());
    const Clock::time_point T1 = Clock::now();
    Engine = std::make_unique<ShardedQueryEngine>(*Store, EO);
    Setup.add(Gen, Build, secondsBetween(T0, T1),
              secondsBetween(T1, Clock::now()));
  }
  Setup.report(Out);
  const Count N = Original->numNodes();

  // Depots: seeded vertices with edges; warm their hot states.
  SplitMix64 Rng(subSeed(C.Seed, 22));
  std::vector<VertexId> Depots;
  while (static_cast<int>(Depots.size()) < kDepots) {
    const VertexId V = static_cast<VertexId>(Rng.nextInt(0, N));
    if (Original->outDegree(V) > 0)
      Depots.push_back(V);
  }
  for (VertexId D : Depots)
    servedDistances(*Engine, D, N);

  auto Spinners = std::make_unique<IdleSpinners>(C.Threads);
  EdgeModel Model(*Original);
  std::vector<std::vector<EdgeUpdate>> Stream;
  std::vector<double> ApplyMicros, FoldApplyMicros;
  Count Updates = 0, OverlayMax = 0;
  std::atomic<bool> Stop{false};
  Clock::time_point WriteStart, WriteEnd;
  std::thread Writer([&] {
    SplitMix64 WRng(subSeed(C.Seed, 23));
    WriteStart = Clock::now();
    while (!Stop.load(std::memory_order_relaxed)) {
      std::vector<EdgeUpdate> Batch = mixedBatch(Model, kSide, WRng);
      const Clock::time_point T0 = Clock::now();
      ShardedSnapshotStore::ApplyResult R;
      {
        trace::Scope Span("service.apply", Stream.size() + 1);
        R = Engine->applyUpdates(Batch);
      }
      const double Micros = microsBetween(T0, Clock::now());
      ApplyMicros.push_back(Micros);
      if (R.CompactionTriggered)
        FoldApplyMicros.push_back(Micros);
      Updates += static_cast<Count>(Batch.size());
      OverlayMax = std::max(OverlayMax, overlayEdges(*R.Snap));
      Stream.push_back(std::move(Batch));
    }
    WriteEnd = Clock::now();
  });

  // Depot reads: open loop beside the writer for the whole window. Each
  // arrival first pins the current version, as a reader would.
  auto Next = [&](uint64_t I) {
    Arrival A;
    {
      trace::Scope Span("service.pin", I + 1);
      ShardedSnapshotStore::Snapshot Pinned = Store->current();
    }
    A.Q.Kind = QueryKind::PPSP;
    A.Q.Source = Depots[I % Depots.size()];
    const uint64_t H = subSeed(C.Seed, 1000 + I);
    const Count Span = 2 * kDepotWindow + 1;
    const Count Row = std::clamp<Count>(
        A.Q.Source / kSide + static_cast<Count>(H % Span) - kDepotWindow, 0,
        kSide - 1);
    const Count Col = std::clamp<Count>(
        A.Q.Source % kSide + static_cast<Count>(H / Span % Span) -
            kDepotWindow,
        0, kSide - 1);
    A.Q.Target = static_cast<VertexId>(Row * kSide + Col);
    return A;
  };
  const StepResult Reads = runOpenLoopStep(
      *Engine, *Store, kDepotRate, C.Seconds, subSeed(C.Seed, 24), 2, 0,
      Next);
  Stop.store(true);
  Writer.join();
  Spinners.reset();
  const uint64_t HotHits = Engine->hotHits(); // before verification reads

  const double WriteSeconds = secondsBetween(WriteStart, WriteEnd);
  Out.P50Micros = median(ApplyMicros);
  Out.TailMicros = percentile(ApplyMicros, 99);
  Out.RatePerSecond = static_cast<double>(Updates) / WriteSeconds;
  Out.Attempted = Stream.size() + Reads.Records.size();
  Out.Failed = Reads.Failed;
  uint64_t Folds = 0;
  for (int S = 0; S < Store->numShards(); ++S)
    Folds += Store->shardFolds(S);
  const std::vector<double> Depot =
      latencies(Reads.Records, [](const QueryRecord &) { return true; });
  note("live_write: batches=%zu updates=%lld apply_p50_us=%.1f us "
       "apply_p99_us=%.1f us updates_per_s=%.0f 1/s folds=%llu "
       "depot_reads=%zu depot_p99_us=%.1f us hot_hits=%llu hot_repairs=%llu "
       "hot_cached=%zu",
       Stream.size(), static_cast<long long>(Updates), Out.P50Micros,
       Out.TailMicros, Out.RatePerSecond,
       static_cast<unsigned long long>(Folds), Depot.size(),
       percentile(Depot, 99),
       static_cast<unsigned long long>(HotHits),
       static_cast<unsigned long long>(Engine->hotRepairs()),
       Engine->hotStatesCached());

  // Verification: the final adjacency against the model, and the
  // certificate on every depot's final served distances.
  const ShardedSnapshotStore::Snapshot Final = Store->current();
  std::string Why = Model.compare(*Final);
  if (!Why.empty())
    Out.mismatch("final store adjacency: " + Why);
  std::vector<Priority> FirstDepot;
  for (VertexId D : Depots) {
    std::vector<Priority> Dist = servedDistances(*Engine, D, N);
    Why = certifyDistances(*Final, D, Dist);
    if (!Why.empty())
      Out.mismatch("depot " + std::to_string(D) + " certificate: " + Why);
    if (FirstDepot.empty())
      FirstDepot = std::move(Dist);
  }
  if (Folds == 0)
    Out.mismatch("no per-shard fold tripped during the run");
  // Negative self-tests: a model that saw one more update, and a depot
  // state with one corrupted distance, must both be rejected.
  {
    EdgeModel Phantom = Model;
    const VertexId U = Depots[0];
    const std::vector<WNode> Row = Phantom.row(U);
    Phantom.apply(EdgeUpdate{U, Row.empty() ? U + 1 : Row[0].V,
                             Row.empty() ? 1 : Row[0].W + 1,
                             UpdateKind::Upsert});
    VertexId Victim = kInvalidVertex;
    for (VertexId V = 0; V < static_cast<VertexId>(N); ++V)
      if (V != Depots[0] && FirstDepot[V] != kInfiniteDistance) {
        Victim = V;
        break;
      }
    bool Caught = !Phantom.compare(*Final).empty() && Victim != kInvalidVertex;
    if (Caught) {
      FirstDepot[Victim] += 1;
      Caught = !certifyDistances(*Final, Depots[0], FirstDepot).empty();
    }
    if (!Caught)
      Out.mismatch("self-test: adjacency or depot check accepted a "
                   "corrupted input");
  }
  note("live_write: batches attempted=%zu failed=0; depot queries "
       "attempted=%zu failed=%llu",
       Stream.size(), Reads.Records.size(),
       static_cast<unsigned long long>(Reads.Failed));
  note("live_write: verified final adjacency (%zu touched edges) and %d "
       "depot certificates: %s",
       Model.touched(), kDepots, Out.Correct ? "ok" : "MISMATCH");

  if (trace::enabled()) {
    // Replay the recorded stream through the store and repair layers
    // directly, each call under its own span.
    ShardedSnapshotStore Replay(Graph(*Original), storeOptions());
    const Schedule S = EO.DefaultSchedule;
    std::vector<std::unique_ptr<DistanceState>> States;
    RepairScratch Scratch;
    for (VertexId D : Depots) {
      States.push_back(std::make_unique<DistanceState>(N));
      deltaSteppingSSSP(*Replay.current(), D, S, *States.back());
    }
    // Bounded: the replay stops after kReplayBatches or the run's length.
    const Clock::time_point ReplayEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(C.Seconds));
    uint64_t Id = 0;
    for (const std::vector<EdgeUpdate> &Batch : Stream) {
      if (Id == kReplayBatches || Clock::now() > ReplayEnd)
        break;
      ShardedSnapshotStore::ApplyResult R;
      {
        trace::Scope Span("service.store_apply", ++Id);
        R = Replay.applyUpdates(Batch);
      }
      for (std::unique_ptr<DistanceState> &St : States) {
        trace::Scope Span("algorithms.repair", Id);
        RepairStats RS = repairAfterUpdates(*R.Snap, R.Applied, *St, S,
                                            Scratch);
        Span.counter(0, static_cast<double>(RS.AffectedVertices));
      }
    }
    trace::record("write.summary", Clock::now(), Clock::now(), 0, 0,
                  {static_cast<double>(Folds),
                   FoldApplyMicros.empty()
                       ? 0.0
                       : *std::max_element(FoldApplyMicros.begin(),
                                           FoldApplyMicros.end()),
                   static_cast<double>(OverlayMax),
                   static_cast<double>(HotHits),
                   static_cast<double>(Engine->hotRepairs()),
                   static_cast<double>(Depot.size())});
    auto Stats = trace::reduce(trace::collect());
    const trace::NameStats &Store_ = Stats["service.store_apply"];
    const trace::NameStats &Repair = Stats["algorithms.repair"];
    std::vector<double> Affected;
    for (const auto &Cs : Repair.Counters)
      Affected.push_back(Cs[0]);
    const auto &Sum = Stats["write.summary"].Counters.front();
    Out.Layer["write.store_apply_us.p50"] = median(Store_.DurationMicros);
    Out.Layer["write.store_apply_us.p99"] =
        percentile(Store_.DurationMicros, 99);
    Out.Layer["write.repair_us.p50"] = median(Repair.DurationMicros);
    Out.Layer["write.repair_affected"] = median(Affected);
    Out.Layer["write.folds"] = Sum[0];
    Out.Layer["write.fold_apply_us.max"] = Sum[1];
    Out.Layer["write.overlay_edges.max"] = Sum[2];
    Out.Layer["write.hot_hit_ratio"] = Sum[5] ? Sum[3] / Sum[5] : 0;
    Out.Layer["write.hot_repairs"] = Sum[4];
    Out.Layer["write.pin_us.p99"] =
        percentile(Stats["service.pin"].DurationMicros, 99);
    Out.Layer["write.depot_p50_us"] = median(Depot);
    Out.Layer["write.depot_p99_us"] = percentile(Depot, 99);
  }
  return Out;
}

} // namespace perfbench
