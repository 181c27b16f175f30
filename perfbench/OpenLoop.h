//===- perfbench/OpenLoop.h - Open-loop query arrivals ----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One open-loop step shared by `serve` and `live_write`: a single
/// generator thread (the caller) submits Poisson arrivals at a fixed rate
/// into a query engine, and collector threads block on the tickets in
/// submission order. Each query is timed from its *due* time — when the
/// arrival process scheduled it — to its collected result, so a late
/// generator or a stalled engine charges every query that waited; the
/// generator's lateness (submit start minus due time) is recorded too.
///
/// Every query also records the store version before submit and after
/// collect: when the two agree, the answer came from exactly that version
/// and can be checked against a serial Dijkstra on its retained snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_PERFBENCH_OPENLOOP_H
#define GRAPHIT_PERFBENCH_OPENLOOP_H

#include "Bench.h"
#include "Trace.h"

#include "service/QueryEngine.h"
#include "support/Random.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace perfbench {

/// How long before an arrival's due time the generator stops sleeping and
/// spins.
inline constexpr std::chrono::microseconds kSpinMicros{300};

/// Keeps every core busy at the lowest scheduling priority (SCHED_IDLE)
/// while the live workloads run. On a virtual machine an idle vCPU halts,
/// and waking it for the next query can take milliseconds when the host is
/// busy; that latency belongs to the host, not to the program. Idle-class
/// threads never delay a runnable thread of normal priority (the kernel
/// preempts them at once), so what remains is the program's own waiting.
class IdleSpinners {
public:
  explicit IdleSpinners(int Cores);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners &) = delete;
  IdleSpinners &operator=(const IdleSpinners &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// The road grid both live workloads serve: a Side x Side perturbed
/// lattice with coordinates, symmetrized. Times generation and CSR build.
graphit::Graph roadGraph(graphit::Count Side, uint64_t Seed,
                         double &GenSeconds, double &BuildSeconds);

/// One arrival: the query plus the tags the statistics split on.
struct Arrival {
  graphit::service::Query Q;
  bool Premium = false;
  bool Lazy = false;
};

/// What the benchmark observed about one submitted query.
struct QueryRecord {
  Clock::time_point Due, SubmitStart, SubmitEnd, Collected;
  uint64_t VersionBefore = 0, VersionAfter = 0;
  bool Ok = false;
  bool Premium = false, Lazy = false;
  graphit::VertexId Source = 0, Target = 0;
  graphit::Priority Dist = graphit::kInfiniteDistance;
  double EngineMicros = 0;
  double Rounds = 0, Processed = 0;

  double latencyMicros() const { return microsBetween(Due, Collected); }
};

struct StepResult {
  double OfferedRate = 0;
  std::vector<QueryRecord> Records;
  size_t MaxQueueDepth = 0;
  /// Time from the last due arrival to the last collected result.
  double DrainMicros = 0;
  /// Collected results per second over [first due, last collected].
  double CompletedRate = 0;
  uint64_t Failed = 0;
};

/// Runs one step of \p Seconds at \p Rate arrivals per second; \p Next
/// yields the I-th arrival. Collector threads are started and joined
/// inside, so every query of the step has resolved on return.
template <class EngineT, class StoreT, class NextFn>
StepResult runOpenLoopStep(EngineT &Engine, const StoreT &Store, double Rate,
                           double Seconds, uint64_t Seed, int NumCollectors,
                           int StepIndex, NextFn &&Next) {
  struct Handoff {
    uint64_t Ticket;
    trace::SpanId Arrival;
    QueryRecord R;
  };
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Handoff> Queue;
  bool Done = false;
  std::vector<std::vector<QueryRecord>> PerCollector(
      static_cast<size_t>(NumCollectors));
  std::vector<std::thread> Collectors;
  for (int C = 0; C < NumCollectors; ++C)
    Collectors.emplace_back([&, C] {
      std::vector<QueryRecord> &Out = PerCollector[static_cast<size_t>(C)];
      while (true) {
        Handoff H;
        {
          std::unique_lock<std::mutex> Lock(Mu);
          Cv.wait(Lock, [&] { return !Queue.empty() || Done; });
          if (Queue.empty())
            return;
          H = std::move(Queue.front());
          Queue.pop_front();
        }
        const Clock::time_point Start = Clock::now();
        std::optional<graphit::service::QueryResult> Res =
            Engine.tryCollect(H.Ticket);
        QueryRecord &R = H.R;
        R.Collected = Clock::now();
        R.VersionAfter = Store.version();
        R.Ok = Res && Res->Status == graphit::service::QueryStatus::Ok;
        if (Res) {
          R.Dist = Res->Dist;
          R.EngineMicros = Res->Stats.Seconds * 1e6;
          R.Rounds = static_cast<double>(Res->Stats.totalRounds());
          R.Processed = static_cast<double>(Res->Stats.VerticesProcessed);
        }
        trace::record("service.collect", Start, R.Collected, H.Arrival,
                      H.Ticket,
                      {R.EngineMicros, R.Rounds, R.Processed,
                       R.Lazy ? 1.0 : 0.0, R.latencyMicros(),
                       static_cast<double>(StepIndex)});
        Out.push_back(R);
      }
    });

  StepResult Step;
  Step.OfferedRate = Rate;
  graphit::SplitMix64 Rng(Seed);
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(1);
  const double WindowMicros = Seconds * 1e6;
  double AtMicros = 0;
  Clock::time_point LastDue = T0;
  for (uint64_t I = 0;; ++I) {
    AtMicros += -std::log(1.0 - Rng.nextDouble()) * (1e6 / Rate);
    if (AtMicros >= WindowMicros)
      break;
    const Clock::time_point Due =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(AtMicros));
    Arrival A = Next(I);
    // Sleep to just before the due time, then spin: a sleeping thread's
    // wake-up can land milliseconds late on a busy host, and the arrival
    // process is the one clock here that must not drift.
    std::this_thread::sleep_until(Due - kSpinMicros);
    while (Clock::now() < Due) {
    }
    Handoff H;
    H.R.Due = LastDue = Due;
    H.R.Premium = A.Premium;
    H.R.Lazy = A.Lazy;
    H.R.Source = A.Q.Source;
    H.R.Target = A.Q.Target;
    H.R.VersionBefore = Store.version();
    H.R.SubmitStart = Clock::now();
    H.Ticket = Engine.submit(std::move(A.Q));
    H.R.SubmitEnd = Clock::now();
    H.Arrival = trace::record("serve.arrival", Due, H.R.SubmitEnd, 0,
                              H.Ticket);
    trace::record("service.submit", H.R.SubmitStart, H.R.SubmitEnd,
                  H.Arrival, H.Ticket);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.push_back(std::move(H));
    }
    Cv.notify_one();
    if (I % 16 == 0)
      Step.MaxQueueDepth = std::max(Step.MaxQueueDepth, Engine.queueDepth());
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
  }
  Cv.notify_all();
  for (std::thread &T : Collectors)
    T.join();

  Clock::time_point LastCollected = T0;
  for (std::vector<QueryRecord> &V : PerCollector)
    for (QueryRecord &R : V) {
      LastCollected = std::max(LastCollected, R.Collected);
      Step.Failed += !R.Ok;
      Step.Records.push_back(R);
    }
  Step.DrainMicros = microsBetween(LastDue, LastCollected);
  Step.CompletedRate = static_cast<double>(Step.Records.size()) /
                       std::max(1e-9, secondsBetween(T0, LastCollected));
  return Step;
}

/// Latencies (due to collected) of the records matching \p Keep.
template <class Pred>
std::vector<double> latencies(const std::vector<QueryRecord> &Records,
                              Pred Keep) {
  std::vector<double> Out;
  for (const QueryRecord &R : Records)
    if (Keep(R))
      Out.push_back(R.latencyMicros());
  return Out;
}

} // namespace perfbench

#endif // GRAPHIT_PERFBENCH_OPENLOOP_H
