//===- wallbench/Trace.h - Spans and histograms for traced runs -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing support. Spans are recorded from the benchmark
/// side, around each call into a layer (construction, live-set build, a
/// mutator step, a dynamic-failure injection, a serve run), and carry the
/// span that caused them. Slow spans are kept one by one in memory and
/// written when the run ends; fast mutator steps - millions per suite
/// pass - are folded into per-name histograms instead.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_TRACE_H
#define WALLBENCH_TRACE_H

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(B - A);
  return Ns.count() < 0 ? 0 : static_cast<uint64_t>(Ns.count());
}

/// Log-linear histogram of nanosecond values: 16 buckets per power of
/// two, so a reported percentile is within about 3% of the sample.
class Histogram {
public:
  void add(uint64_t V) {
    ++Buckets[bucketOf(V)];
    ++N;
  }
  uint64_t count() const { return N; }

  /// Nearest-rank percentile (rank ceil(Q * N)), as the midpoint of the
  /// bucket that holds it; 0 when empty.
  double percentile(double Q) const {
    if (N == 0)
      return 0.0;
    uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * double(N)));
    Rank = std::clamp<uint64_t>(Rank, 1, N);
    uint64_t Seen = 0;
    for (size_t I = 0; I != Buckets.size(); ++I) {
      Seen += Buckets[I];
      if (Seen >= Rank)
        return midpoint(I);
    }
    return 0.0; // Unreachable: the buckets hold all N samples.
  }

private:
  static constexpr unsigned SubBits = 4;
  static constexpr uint64_t Sub = uint64_t(1) << SubBits;

  static size_t bucketOf(uint64_t V) {
    if (V < Sub)
      return static_cast<size_t>(V);
    unsigned Msb = 63 - static_cast<unsigned>(std::countl_zero(V));
    uint64_t Frac = (V >> (Msb - SubBits)) & (Sub - 1);
    return static_cast<size_t>(Sub + (Msb - SubBits) * Sub + Frac);
  }
  static double midpoint(size_t I) {
    if (I < Sub)
      return double(I);
    uint64_t Octave = (I - Sub) / Sub + SubBits;
    uint64_t Frac = (I - Sub) % Sub;
    double Width = std::ldexp(1.0, static_cast<int>(Octave - SubBits));
    return std::ldexp(1.0, static_cast<int>(Octave)) + (double(Frac) + 0.5) * Width;
  }

  std::vector<uint64_t> Buckets =
      std::vector<uint64_t>(Sub + (64 - SubBits) * Sub, 0);
  uint64_t N = 0;
};

/// One recorded span. Times are nanoseconds since the run's epoch;
/// ChildNs is the part of the interval covered by child work the
/// benchmark can see (collections read from the heap's pause history).
struct Span {
  const char *Name = "";
  uint32_t Parent = 0; ///< Index + 1 of the causing span; 0 for a root.
  uint32_t Invocation = 0;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint64_t ChildNs = 0;
};

/// In-memory span store, written out once at the end of the run.
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Epoch) : Epoch(Epoch) {}

  /// Opens a span now; returns its id (index + 1).
  uint32_t begin(const char *Name, uint32_t Parent, uint32_t Invocation) {
    Span S;
    S.Name = Name;
    S.Parent = Parent;
    S.Invocation = Invocation;
    S.StartNs = nsBetween(Epoch, Clock::now());
    Spans.push_back(S);
    return static_cast<uint32_t>(Spans.size());
  }
  void end(uint32_t Id) {
    Span &S = Spans[Id - 1];
    S.DurNs = nsBetween(Epoch, Clock::now()) - S.StartNs;
  }
  /// Records a span whose bounds the caller already measured.
  void add(const char *Name, uint32_t Parent, uint32_t Invocation,
           Clock::time_point Start, Clock::time_point End,
           uint64_t ChildNs) {
    Span S;
    S.Name = Name;
    S.Parent = Parent;
    S.Invocation = Invocation;
    S.StartNs = nsBetween(Epoch, Start);
    S.DurNs = nsBetween(Start, End);
    S.ChildNs = std::min(ChildNs, S.DurNs);
    Spans.push_back(S);
  }
  const std::vector<Span> &spans() const { return Spans; }

  /// Writes one JSON object per line; false if the file cannot be
  /// written. A span's child time is the time it recorded itself plus the
  /// durations of its kept child spans; steps folded into histograms stay
  /// in their parent's self time.
  bool write(const std::string &Path, const std::string &Workload) const {
    std::vector<uint64_t> Child(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Child[I] += Spans[I].ChildNs;
    for (const Span &S : Spans)
      if (S.Parent)
        Child[S.Parent - 1] += S.DurNs;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      uint64_t ChildNs = std::min(Child[I], S.DurNs);
      std::fprintf(F,
                   "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                   "\"workload\":\"%s\",\"invocation\":%u,"
                   "\"start_ns\":%llu,\"dur_ns\":%llu,\"child_ns\":%llu,"
                   "\"self_ns\":%llu}\n",
                   I + 1, S.Parent, S.Name, Workload.c_str(), S.Invocation,
                   (unsigned long long)S.StartNs,
                   (unsigned long long)S.DurNs,
                   (unsigned long long)ChildNs,
                   (unsigned long long)(S.DurNs - ChildNs));
    }
    return std::fclose(F) == 0;
  }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

} // namespace wallbench

#endif // WALLBENCH_TRACE_H
