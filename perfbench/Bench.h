//===- perfbench/Bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the outcome a
/// workload hands back to main(), sample statistics, and the set-up timer.
///
/// Every workload reports the same three end-to-end metrics (see
/// README.md for what each means per workload) and fills the per-layer
/// metrics of the layers it exercises; the rest stay 0. Its tail latency
/// is printed in the run's report and, from the traced run, as the
/// per-layer `trace.tail_us`; it is not gated, because on a shared
/// virtual machine its run-to-run spread is wider than any bound a gate
/// may use.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_PERFBENCH_BENCH_H
#define GRAPHIT_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Cores the run may keep busy (nproc).
  int Threads = 1;
};

/// Derives an independent stream seed from the run seed.
inline uint64_t subSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Salt * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Nearest-rank percentile (P in [0, 100]) of \p V; 0 when empty.
inline double percentile(const std::vector<double> &Samples, double P) {
  if (Samples.empty())
    return 0;
  std::vector<double> V = Samples;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P / 100.0 * static_cast<double>(V.size()));
  if (Rank >= V.size())
    Rank = V.size() - 1;
  return V[Rank];
}
inline double median(const std::vector<double> &V) {
  return percentile(V, 50);
}

/// What a workload hands back: the operation counts, the end-to-end
/// metrics of the untraced measurement, the per-layer metrics it could
/// fill, and whether every independent check passed.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double SetupSeconds = 0;
  double P50Micros = 0;
  double TailMicros = 0; ///< reported, not gated

  double RatePerSecond = 0;
  std::map<std::string, double> Layer;

  /// Records a failed check; the run then exits non-zero.
  void mismatch(const std::string &What);
};

/// Set-up is repeated and its median reported, so a single slow
/// allocation does not move `setup_s`. The stages are the `graph`
/// (generate, build) and `service` (store, engine) set-up steps; the
/// per-stage medians land in `setup.*_s`.
struct SetupTimes {
  std::vector<double> Generate, Build, Store, Engine, Total;
  void add(double G, double B, double S, double E) {
    Generate.push_back(G);
    Build.push_back(B);
    Store.push_back(S);
    Engine.push_back(E);
    Total.push_back(G + B + S + E);
  }
  void report(Outcome &Out) const {
    Out.SetupSeconds = median(Total);
    Out.Layer["setup.generate_s"] = median(Generate);
    Out.Layer["setup.build_s"] = median(Build);
    Out.Layer["setup.store_s"] = median(Store);
    Out.Layer["setup.engine_s"] = median(Engine);
  }
};

/// Set-up repetitions per run (the last one's objects are measured).
inline constexpr int kSetupRepeats = 3;

/// Prints one human-readable report line (not the final JSON line).
void note(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

Outcome runSolve(const Config &C);
Outcome runServe(const Config &C);
Outcome runLiveWrite(const Config &C);

} // namespace perfbench

#endif // GRAPHIT_PERFBENCH_BENCH_H
