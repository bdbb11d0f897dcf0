//===- mdabench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock spans for the benchmark's traced run.  A span is recorded
/// in the benchmark's own code around one call into a library layer:
/// name, start, end, the enclosing span on the same thread (its parent)
/// and the id of the run (or set-up) it belongs to.  Spans stay in
/// memory until the benchmark ends; the recorder then summarizes self
/// time per span name and writes every span out as JSON.
///
/// A null recorder disables tracing: every Span then costs one branch,
/// which is what the untraced run measures with.
///
//===----------------------------------------------------------------------===//

#ifndef MDABENCH_SPANS_H
#define MDABENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mdabench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch.
inline int64_t nanosSince(Clock::time_point Epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

/// Span ids.  A run's id is its index in the phase (0, 1, 2, ...).
/// Spans of a whole pass and of a set-up take ids from disjoint ranges
/// above every run, so no two runs, passes or set-ups share an id.
/// Both bases stay below 2^53, so the ids survive any JSON reader.
constexpr uint64_t PassIdBase = uint64_t(1) << 40;
constexpr uint64_t SetupIdBase = uint64_t(1) << 41;
inline uint64_t passSpanId(uint64_t Pass) { return PassIdBase + Pass; }
inline uint64_t setupSpanId(uint64_t Setup) { return SetupIdBase + Setup; }

/// One closed span.
struct SpanRecord {
  const char *Name = nullptr; ///< static string
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  int64_t Parent = -1;
  /// Run (or set-up) the span belongs to.
  uint64_t RunId = 0;
};

/// Per-name totals: how often, how long, and how much of that was the
/// span's own work rather than its children's.
struct SpanSummary {
  uint64_t Count = 0;
  double TotalMs = 0.0;
  double SelfMs = 0.0;
};

/// Thread-safe, append-only span store.
class SpanRecorder {
public:
  SpanRecorder() : Epoch(Clock::now()) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  /// Open a span under \p Parent (-1 = root); returns its index.
  int64_t open(const char *Name, uint64_t RunId, int64_t Parent);
  /// Close the span \p Index.
  void close(int64_t Index);

  /// Self time per span name: duration minus the union of the
  /// intervals its children cover (children may run on other threads).
  std::map<std::string, SpanSummary> summarize() const;
  /// Sum of durations of spans named \p Name, in ms.
  double totalMs(const char *Name) const;
  /// Number of closed spans named \p Name.
  uint64_t count(const char *Name) const;

  /// Every span as a JSON array (one object per span).
  std::string toJson() const;

private:
  Clock::time_point Epoch;
  mutable std::mutex M; ///< guards Spans
  std::vector<SpanRecord> Spans;
};

/// RAII span; no-op when the recorder is null.  By default the parent
/// is the innermost span open on the calling thread; work fanned out to
/// other threads names its parent explicitly.
class Span {
public:
  static constexpr int64_t ThreadParent = -2;

  Span(SpanRecorder *Rec, const char *Name, uint64_t RunId,
       int64_t Parent = ThreadParent);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// This span's index in the recorder (-1 when tracing is off).
  int64_t index() const { return Index; }

private:
  SpanRecorder *Rec;
  int64_t Index = -1;
  int64_t PrevOpen = -1; ///< the thread's innermost span before this one
};

} // namespace mdabench

#endif // MDABENCH_SPANS_H
