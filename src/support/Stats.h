//===- support/Stats.h - Aggregate statistics helpers ----------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Summary statistics used by the benchmark harness: geometric mean (the
/// paper normalizes runtimes and reports geomeans over the 21 selected
/// benchmarks), arithmetic mean, and a small named-counter bag that the
/// engine uses to expose per-run event counts.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_SUPPORT_STATS_H
#define MDABT_SUPPORT_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace mdabt {

/// Geometric mean of positive values.  Returns 0 for an empty input.
double geometricMean(const std::vector<double> &Values);

/// Arithmetic mean.  Returns 0 for an empty input.
double arithmeticMean(const std::vector<double> &Values);

/// A named event counter bag.  Deterministic iteration order (insertion
/// order) so that reports are stable.
///
/// This is the flat, legacy view of a run's statistics; since the obs
/// layer landed it is derived from the structured
/// obs::MetricsRegistry at end of run (fillCounterBag), so the two
/// views always agree.  New consumers should prefer
/// RunResult::Metrics (typed counters/gauges/histograms, JSON
/// serialization — see docs/TELEMETRY.md); CounterBag remains for the
/// table printers and by-name lookups in benches and tests.
class CounterBag {
public:
  /// Add \p Delta to counter \p Name, creating it at zero if absent.
  void add(const std::string &Name, uint64_t Delta = 1);

  /// Overwrite counter \p Name with \p Value (for non-additive values
  /// such as gauges and status codes).
  void set(const std::string &Name, uint64_t Value);

  /// Value of counter \p Name; 0 if it was never touched.
  uint64_t get(const std::string &Name) const;

  /// All (name, value) pairs in insertion order.
  const std::vector<std::pair<std::string, uint64_t>> &entries() const {
    return Entries;
  }

private:
  std::vector<std::pair<std::string, uint64_t>> Entries;
};

} // namespace mdabt

#endif // MDABT_SUPPORT_STATS_H
