//===- mdabench/Workloads.h - The benchmark's seeded workloads -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the MDABT benchmark (README.md) and the one
/// operation they share: a *run* — policy construction through
/// Engine::run returning — checked against an interpreter oracle that
/// set-up computed for the run's guest image.
///
/// A workload is a fixed list of cells (one program under one policy);
/// one pass runs every cell once.  Set-up builds the guest images from
/// the workload seed, runs the oracle on each and, for `serving`, warms
/// a TranslationService, saves it and reloads it.  Only public library
/// functions are called.
///
//===----------------------------------------------------------------------===//

#ifndef MDABENCH_WORKLOADS_H
#define MDABENCH_WORKLOADS_H

#include "Spans.h"

#include "dbt/Engine.h"
#include "guest/GuestISA.h"
#include "guest/GuestImage.h"
#include "mda/PolicyFactory.h"

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mdabench {

using namespace mdabt;

/// The final guest state the interpreter oracle computed in set-up:
/// what the repository's differential contract compares (registers,
/// checksum, data memory), plus the retired instruction count.
struct Oracle {
  uint64_t Checksum = 0;
  uint64_t MemoryHash = 0;
  uint32_t Gpr[guest::NumGPR] = {};
  uint64_t Qreg[guest::NumQReg] = {};
  uint64_t Insts = 0;
};

/// One guest program and its oracle.
struct Program {
  std::string Name;
  guest::GuestImage Ref;
  /// TRAIN input of the same plan, for Static's profile (else empty).
  std::optional<guest::GuestImage> Train;
  Oracle Expected;
};

/// Why a cell is in the serving request mix.
enum class Role : uint8_t {
  Matrix,    ///< a plain (program, policy) cell
  Warm,      ///< served from the artifact loaded before each pass
  FirstSeen, ///< new to the service: misses and publishes
  Hostile,   ///< self-modifying guest: its rewrites always miss
};

/// One program under one policy.
struct Cell {
  const Program *Prog = nullptr;
  mda::PolicySpec Spec;
  std::string Label;
  Role Kind = Role::Matrix;
};

/// A set-up workload, ready for timed passes.
struct Workload {
  std::string Name;
  uint64_t Seed = 0;
  /// Engine configuration of every run (Service is set per pass).
  dbt::EngineConfig Config;
  bool Serving = false;
  std::deque<Program> Programs; ///< stable addresses for Cell::Prog
  std::vector<Cell> Cells;      ///< one pass, in run order

  // -- serving only -----------------------------------------------------
  /// Translation-cache artifact saved in set-up; every pass starts from
  /// a service loaded from it.
  std::string ArtifactPath;
  double SaveMs = 0.0;
  double LoadMs = 0.0;
  uint64_t FootprintBytes = 0;

  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;
  ~Workload();
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Build workload \p Name from \p Seed with \p Workers threads.  Spans
/// go to \p Rec (may be null) under id \p SetupId (see setupSpanId()).
/// Serving writes its artifact into \p OutDir.  Returns null with \p Err
/// set on any failure, including an oracle that does not halt or a
/// warm-up run that diverges from its oracle.
std::unique_ptr<Workload> setUpWorkload(const std::string &Name,
                                        uint64_t Seed, unsigned Workers,
                                        const std::string &OutDir,
                                        SpanRecorder *Rec, uint64_t SetupId,
                                        std::string &Err);

/// The modeled counters one run contributes to the per-layer metrics.
struct RunCounters {
  uint64_t Cycles = 0;
  uint64_t GuestInsts = 0; ///< from the oracle
  std::vector<uint64_t> Values; ///< counterNames() order
};

/// Counter names RunCounters::Values holds, in order.
const std::vector<std::string> &counterNames();

/// What one run produced.
struct RunOutcome {
  double LatencyMs = 0.0; ///< policy construction through Engine::run
  double PolicyMs = 0.0;
  double EngineMs = 0.0;
  /// Completed and matched the oracle's checksum, memory hash and
  /// final registers.
  bool Ok = false;
  dbt::RunError Error = dbt::RunError::None;
  /// FNV-1a over the run's full metrics JSON: equal signatures mean
  /// bit-identical modeled behaviour.
  uint64_t Signature = 0;
  RunCounters Counters;
};

/// Execute one run of \p C.  \p Svc is the pass's service (serving) or
/// null.  With \p Probe set (traced run, once per program), also time
/// the digest and analysis probes on the run's image, outside the run's
/// own latency.
RunOutcome runCell(const Workload &W, const Cell &C,
                   dbt::TranslationService *Svc, SpanRecorder *Rec,
                   uint64_t RunId, bool Probe);

} // namespace mdabench

#endif // MDABENCH_WORKLOADS_H
