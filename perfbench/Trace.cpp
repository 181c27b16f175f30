//===- perfbench/Trace.cpp - In-memory spans around layer calls -----------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace trace {

namespace {

std::atomic<bool> Enabled{false};

/// One thread's spans. Buffers are owned by the registry so they outlive
/// the threads that filled them.
struct Buffer {
  uint64_t Slot = 0;
  std::vector<Span> Spans;
  std::vector<SpanId> Open; ///< stack of unfinished Scopes
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<Buffer>> Registry;

Buffer &local() {
  thread_local Buffer *B = nullptr;
  if (!B) {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Registry.push_back(std::make_unique<Buffer>());
    B = Registry.back().get();
    B->Slot = Registry.size();
  }
  return *B;
}

SpanId push(Buffer &B, Span S) {
  S.Id = (B.Slot << 32) | (B.Spans.size() + 1);
  if (S.Parent == 0 && !B.Open.empty())
    S.Parent = B.Open.back();
  B.Spans.push_back(S);
  return S.Id;
}

} // namespace

void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }

SpanId record(const char *Name, Clock::time_point Start,
              Clock::time_point End, SpanId Parent, uint64_t Request,
              std::array<double, kCounters> Counters) {
  if (!enabled())
    return 0;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Request = Request;
  S.Counters = Counters;
  return push(local(), S);
}

Scope::Scope(const char *SpanName, uint64_t Req, SpanId ParentId)
    : Active(enabled()), Name(SpanName), Request(Req), Parent(ParentId) {
  if (!Active)
    return;
  Buffer &B = local();
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Request = Request;
  Id = push(B, S);
  B.Open.push_back(Id);
  Start = Clock::now(); // last, so set-up above is not charged to the span
}

Scope::~Scope() {
  if (!Active)
    return;
  const Clock::time_point End = Clock::now();
  Buffer &B = local();
  Span &S = B.Spans[(Id & 0xffffffffULL) - 1];
  S.Start = Start;
  S.End = End;
  S.Counters = Counters;
  B.Open.pop_back();
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<Span> All;
  for (const std::unique_ptr<Buffer> &B : Registry)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  return All;
}

std::map<std::string, NameStats> reduce(const std::vector<Span> &Spans) {
  std::unordered_map<SpanId, size_t> Index;
  for (size_t I = 0; I < Spans.size(); ++I)
    Index[Spans[I].Id] = I;
  std::vector<double> ChildMicros(Spans.size(), 0.0);
  for (const Span &S : Spans) {
    auto It = Index.find(S.Parent);
    if (It != Index.end())
      ChildMicros[It->second] += microsBetween(S.Start, S.End);
  }
  std::map<std::string, NameStats> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    NameStats &N = Out[S.Name];
    const double Dur = microsBetween(S.Start, S.End);
    N.DurationMicros.push_back(Dur);
    N.SelfMicros.push_back(std::max(0.0, Dur - ChildMicros[I]));
    N.Counters.push_back(S.Counters);
  }
  return Out;
}

bool writeJsonLines(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  Clock::time_point T0 = Spans.empty() ? Clock::now() : Spans[0].Start;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"counters\": [%.6g, %.6g, %.6g, %.6g, %.6g, %.6g]}\n",
                 S.Name, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request),
                 microsBetween(T0, S.Start), microsBetween(T0, S.End),
                 S.Counters[0], S.Counters[1], S.Counters[2], S.Counters[3],
                 S.Counters[4], S.Counters[5]);
  return std::fclose(F) == 0;
}

} // namespace trace
} // namespace perfbench
