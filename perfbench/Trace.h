//===- perfbench/Trace.h - In-memory spans around layer calls ---*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's
/// public functions. Off by default (a disabled Scope costs one branch);
/// `--trace 1` turns them on. Each span carries a name, start, end, the
/// span that caused it, a request id shared by the spans of one query or
/// batch, and up to six counters recorded at the same boundary. Spans
/// stay in per-thread buffers until the run ends, when they are merged,
/// written out, and reduced to per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_PERFBENCH_TRACE_H
#define GRAPHIT_PERFBENCH_TRACE_H

#include "Bench.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

inline constexpr size_t kCounters = 6;

/// Global span id: (thread slot << 32) | index + 1; 0 means "no span".
using SpanId = uint64_t;

struct Span {
  const char *Name = nullptr;
  Clock::time_point Start, End;
  SpanId Id = 0;
  SpanId Parent = 0;
  uint64_t Request = 0;
  std::array<double, kCounters> Counters{};
};

void enable(bool On);
bool enabled();

/// Records an already-finished span (for intervals the benchmark observes
/// after the fact, such as a query from its due time to its collection).
SpanId record(const char *Name, Clock::time_point Start,
              Clock::time_point End, SpanId Parent, uint64_t Request,
              std::array<double, kCounters> Counters = {});

/// RAII span around one call; nested Scopes on a thread become children.
class Scope {
public:
  explicit Scope(const char *Name, uint64_t Request = 0,
                 SpanId Parent = 0);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  void counter(int I, double V) {
    if (Active)
      Counters[static_cast<size_t>(I)] = V;
  }
  SpanId id() const { return Id; }

private:
  bool Active;
  const char *Name;
  uint64_t Request;
  SpanId Parent = 0;
  SpanId Id = 0;
  Clock::time_point Start;
  std::array<double, kCounters> Counters{};
};

/// Every span recorded so far, all threads merged. Call after the
/// recording threads have been joined.
std::vector<Span> collect();

/// Per-name reduction: each span's duration and self time (duration minus
/// the time its children cover), in microseconds.
struct NameStats {
  std::vector<double> DurationMicros;
  std::vector<double> SelfMicros;
  std::vector<std::array<double, kCounters>> Counters;
};
std::map<std::string, NameStats> reduce(const std::vector<Span> &Spans);

/// Writes the spans as JSON lines to \p Path; false on an I/O error.
bool writeJsonLines(const std::vector<Span> &Spans, const std::string &Path);

} // namespace trace
} // namespace perfbench

#endif // GRAPHIT_PERFBENCH_TRACE_H
