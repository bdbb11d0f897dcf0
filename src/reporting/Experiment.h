//===- reporting/Experiment.h - Experiment harness -------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness every bench binary is built on: run one benchmark under
/// one policy configuration (building the train image when static
/// profiling needs it), run the MDA census, and render the paper's
/// normalized-runtime series.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_REPORTING_EXPERIMENT_H
#define MDABT_REPORTING_EXPERIMENT_H

#include "dbt/Engine.h"
#include "guest/MdaCensus.h"
#include "mda/PolicyFactory.h"
#include "workloads/SpecPrograms.h"

#include <functional>
#include <string>
#include <vector>

namespace mdabt {
namespace reporting {

/// Run \p Info's REF binary under \p Spec.  Builds and profiles the
/// TRAIN binary when the mechanism is static profiling.
dbt::RunResult runPolicy(const workloads::BenchmarkInfo &Info,
                         const mda::PolicySpec &Spec,
                         const workloads::ScaleConfig &Scale =
                             workloads::ScaleConfig(),
                         const dbt::EngineConfig &Config =
                             dbt::EngineConfig());

/// Like runPolicy, but a run that does not complete is fatal: the
/// failure reason is printed to stderr and the process exits nonzero.
/// Bench binaries use this so truncated runs can never publish figures.
dbt::RunResult runPolicyChecked(const workloads::BenchmarkInfo &Info,
                                const mda::PolicySpec &Spec,
                                const workloads::ScaleConfig &Scale =
                                    workloads::ScaleConfig(),
                                const dbt::EngineConfig &Config =
                                    dbt::EngineConfig());

/// Exit the process with an error message if \p R did not complete.
/// \p What names the run (benchmark/policy) for the diagnostic.
void checkRunCompleted(const dbt::RunResult &R, const std::string &What);

/// One cell of a (benchmark × policy) experiment matrix.  The default
/// runner is runPolicy(*Info, Spec, Scale, Config); a cell may instead
/// carry its own Run closure (ablations whose policy options are not
/// expressible as a PolicySpec, chaos campaigns carrying a FaultPlan).
struct MatrixCell {
  // Every member has an initializer, so designated initializers may
  // omit any of them without -Wmissing-field-initializers.
  const workloads::BenchmarkInfo *Info = nullptr;
  mda::PolicySpec Spec{};
  dbt::EngineConfig Config{};
  /// Label for failure diagnostics; defaults to "<bench> under <policy>".
  std::string Label{};
  /// Custom runner overriding the default runPolicy path.  Must be
  /// self-contained: it executes on a worker thread, concurrently with
  /// other cells.
  std::function<dbt::RunResult()> Run{};

  std::string label() const;
};

/// Run every cell of \p Cells, fanned across \p Jobs worker threads
/// (0 = hardware concurrency, 1 = inline serial execution).  Each cell
/// is an independent deterministic simulation — an Engine owns all of
/// its mutable state — so the result vector, returned in matrix order,
/// is bit-identical for every job count; only wall-clock time changes.
std::vector<dbt::RunResult> runMatrix(const std::vector<MatrixCell> &Cells,
                                      const workloads::ScaleConfig &Scale =
                                          workloads::ScaleConfig(),
                                      unsigned Jobs = 0);

/// runMatrix, then checkRunCompleted on every cell in matrix order (so
/// the failing-cell diagnostic is deterministic too).  Bench binaries
/// use this: truncated runs can never publish figures.
std::vector<dbt::RunResult>
runPolicyMatrixChecked(const std::vector<MatrixCell> &Cells,
                       const workloads::ScaleConfig &Scale =
                           workloads::ScaleConfig(),
                       unsigned Jobs = 0);

/// Census of one image (interpreted to completion).
struct CensusResult {
  uint32_t Nmi = 0;
  uint64_t Mdas = 0;
  uint64_t Refs = 0;
  double Ratio = 0.0;
  guest::MdaCensus::BiasBreakdown Bias;
  uint64_t Checksum = 0;
};
CensusResult runCensus(const guest::GuestImage &Image);

/// Paper-style normalized series: Cycles(spec) / Cycles(baseline) per
/// benchmark, with a geometric-mean row (paper Fig. 10/16 format).
struct NormalizedSeries {
  std::string Label;
  std::vector<double> Values; ///< one per benchmark, baseline = 1.0
  double geomean() const;
};

/// Percent gain of B over A: (A - B) / A (positive = B faster), the
/// format of the paper's gain/loss figures (Fig. 11-14).
double gainOver(uint64_t BaselineCycles, uint64_t ImprovedCycles);

/// The exact byte content writeMetricsJson emits for \p R (exposed so
/// the determinism tests can compare serial and parallel artifacts
/// without touching the filesystem).
std::string metricsJsonString(const dbt::RunResult &R);

/// Serialize \p R's MetricsRegistry (plus run status and checksum) as a
/// JSON object to \p Path — the machine-readable run artifact (e.g.
/// trace_inspect's trace_demo.metrics.json; schema in docs/TELEMETRY.md).
/// Returns false if the file cannot be written.
bool writeMetricsJson(const dbt::RunResult &R, const std::string &Path);

} // namespace reporting
} // namespace mdabt

#endif // MDABT_REPORTING_EXPERIMENT_H
