//===- perfbench/main.cpp - The ordered-graph stack benchmark -------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <path>]
//
// Runs one workload for the given number of seconds, verifies every output
// with the independent checks in Checks.h, and prints as its last line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the three end-to-end metrics; with
// --trace 1 the same workload runs with spans recorded around every layer
// call and the metrics are the per-layer ones derived from the spans.
// Exits 1 when any check fails, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include <sched.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

namespace perfbench {

void note(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, Fmt, Args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(Args);
}

void Outcome::mismatch(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "!! check failed: %s\n", What.c_str());
  note("check failed: %s", What.c_str());
}

} // namespace perfbench

using namespace perfbench;

namespace {

/// Per-layer metrics and their units, in output order. Every workload
/// prints all of them; layers a workload does not exercise read 0.
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"setup.generate_s", "s"},
    {"setup.build_s", "s"},
    {"setup.store_s", "s"},
    {"setup.engine_s", "s"},
    {"solve.rounds", "count"},
    {"solve.fused_rounds", "count"},
    {"solve.overflow_rebuckets", "count"},
    {"solve.processed_per_reached", "ratio"},
    {"solve.kernel_self_us.p50", "us"},
    {"serve.engine_us.p50", "us"},
    {"serve.engine_us.p99", "us"},
    {"serve.rounds_per_query", "count"},
    {"serve.processed_per_query", "count"},
    {"serve.lazy_engine_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.wait_us.p50", "us"},
    {"serve.wait_us.p99", "us"},
    {"serve.queue_depth.max", "count"},
    {"serve.batch_window_max_us", "us"},
    {"serve.premium_p99_us", "us"},
    {"serve.bulk_p99_us", "us"},
    {"serve.gen_late_us.p99", "us"},
    {"serve.verified_share", "ratio"},
    {"write.store_apply_us.p50", "us"},
    {"write.store_apply_us.p99", "us"},
    {"write.repair_us.p50", "us"},
    {"write.repair_affected", "count"},
    {"write.folds", "count"},
    {"write.fold_apply_us.max", "us"},
    {"write.overlay_edges.max", "count"},
    {"write.pin_us.p99", "us"},
    {"write.hot_hit_ratio", "ratio"},
    {"write.hot_repairs", "count"},
    {"write.depot_p50_us", "us"},
    {"write.depot_p99_us", "us"},
    {"trace.spans", "count"},
    {"trace.p50_us", "us"},
    {"trace.tail_us", "us"},
    {"trace.rate_per_s", "1/s"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               Why);
  return 2;
}

int availableCores() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

void printMetric(bool &First, const char *Name, double Value,
                 const char *Unit) {
  std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name, Value, Unit);
  First = false;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  std::string TraceOut;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value");
    const char *V = Argv[++I];
    if (!std::strcmp(A, "--workload")) {
      C.Workload = V;
      HaveWorkload = true;
    } else if (!std::strcmp(A, "--seed")) {
      C.Seed = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--seconds")) {
      C.Seconds = std::atof(V);
    } else if (!std::strcmp(A, "--trace")) {
      C.Trace = std::atoi(V) != 0;
    } else if (!std::strcmp(A, "--trace-out")) {
      TraceOut = V;
    } else {
      return usage("unknown argument");
    }
  }
  if (!HaveWorkload || C.Seconds <= 0)
    return usage("need --workload and a positive --seconds");
  C.Threads = availableCores();
  trace::enable(C.Trace);
  note("perfbench workload=%s seed=%llu seconds=%.1f trace=%d cores=%d",
       C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
       C.Seconds, C.Trace ? 1 : 0, C.Threads);

  Outcome Out;
  if (C.Workload == "solve_road" || C.Workload == "solve_road_lazy" ||
      C.Workload == "solve_rmat" || C.Workload == "solve_kcore")
    Out = runSolve(C);
  else if (C.Workload == "serve")
    Out = runServe(C);
  else if (C.Workload == "live_write")
    Out = runLiveWrite(C);
  else
    return usage("unknown workload");

  if (C.Trace) {
    std::vector<trace::Span> Spans = trace::collect();
    Out.Layer["trace.spans"] = static_cast<double>(Spans.size());
    Out.Layer["trace.p50_us"] = Out.P50Micros;
    Out.Layer["trace.tail_us"] = Out.TailMicros;
    Out.Layer["trace.rate_per_s"] = Out.RatePerSecond;
    if (!TraceOut.empty() && !trace::writeJsonLines(Spans, TraceOut))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   TraceOut.c_str());
  }

  note("end-to-end: setup_s=%.4f p50_us=%.1f rate_per_s=%.2f "
       "(tail_us=%.1f, not gated)",
       Out.SetupSeconds, Out.P50Micros, Out.RatePerSecond, Out.TailMicros);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  bool First = true;
  if (!C.Trace) {
    printMetric(First, "setup_s", Out.SetupSeconds, "s");
    printMetric(First, "p50_us", Out.P50Micros, "us");
    printMetric(First, "rate_per_s", Out.RatePerSecond, "1/s");
  } else {
    for (const auto &[Name, Unit] : kLayerMetrics) {
      auto It = Out.Layer.find(Name);
      printMetric(First, Name, It == Out.Layer.end() ? 0.0 : It->second,
                  Unit);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Out.Correct ? 0 : 1;
}
