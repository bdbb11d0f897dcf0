//===- bench/ablation_dispatch.cpp - Hot-dispatch mechanism ablation ------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: what each hot-dispatch mechanism contributes on top of the
/// chained baseline — hash-table monitor dispatch
/// (EngineConfig::HashDispatch), indirect-branch inline caches
/// (EngineConfig::InlineCaches), and superblock formation
/// (EngineConfig::Superblocks).  Not a paper experiment: it validates
/// that the monitor/dispatch costs the MDA experiments sit on top of
/// remain realistic as the dispatch path gets faster, and that every
/// mechanism is architecturally transparent.
///
/// The ladder runs over six SPEC rows plus two synthetic dispatch
/// kernels: the synthesized SPEC programs keep their indirect branches
/// (call/ret) cold, so `k.callret` (one hot callee returning to two
/// sites) exercises the inline caches and `k.loop3` (a hot three-block
/// loop) exercises multi-block trace formation.
///
/// Two guarantees this binary enforces (exit nonzero on violation):
///  * architectural identity: Checksum and MemoryHash are byte-identical
///    across every dispatch configuration, for every row of the ladder
///    and for all of the paper's 21 selected benchmarks all-on vs
///    all-off (mechanisms may only change *when* code is dispatched,
///    never *what* it computes);
///  * determinism: the printed table depends only on modeled state, so
///    CI can diff it across --jobs values.
///
/// Wall-clock engine throughput per configuration is printed to stderr
/// as an advisory (it is machine-dependent, never a figure).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mda/Policies.h"
#include "workloads/Kernels.h"

#include <chrono>

using namespace mdabt;
using namespace mdabt::bench;

namespace {

struct ConfigRow {
  const char *Name;
  dbt::EngineConfig Config;
};

/// The ablation ladder: baseline, each mechanism alone, all together.
std::vector<ConfigRow> configLadder() {
  dbt::EngineConfig Base;
  dbt::EngineConfig Hash = Base;
  Hash.HashDispatch = true;
  dbt::EngineConfig Ic = Base;
  Ic.InlineCaches = true;
  dbt::EngineConfig Super = Base;
  Super.Superblocks = true;
  dbt::EngineConfig All = Base;
  All.HashDispatch = All.InlineCaches = All.Superblocks = true;
  return {{"baseline", Base},
          {"+hash", Hash},
          {"+ic", Ic},
          {"+superblock", Super},
          {"all-on", All}};
}

/// One row of the ladder table: a SPEC benchmark or a synthetic kernel.
struct LadderRow {
  const char *Name;
  const workloads::BenchmarkInfo *Info; ///< null for kernels
  guest::GuestImage (*Kernel)(uint32_t) = nullptr;
};

dbt::RunResult runKernel(guest::GuestImage (*Kernel)(uint32_t),
                         uint32_t Iters, const mda::PolicySpec &Spec,
                         const dbt::EngineConfig &Config) {
  guest::GuestImage Image = Kernel(Iters);
  mda::DpehPolicy Policy(Spec.Threshold);
  dbt::Engine Engine(Image, Policy, Config);
  return Engine.run();
}

/// Wall-clock throughput of one engine run in simulated host MIPS.
double engineMips(const workloads::BenchmarkInfo &Info,
                  const mda::PolicySpec &Spec,
                  const workloads::ScaleConfig &Scale,
                  const dbt::EngineConfig &Config) {
  auto T0 = std::chrono::steady_clock::now();
  dbt::RunResult R = reporting::runPolicyChecked(Info, Spec, Scale, Config);
  double Sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  if (Sec <= 0.0)
    return 0.0;
  return static_cast<double>(R.Counters.get("host.insts")) / Sec / 1e6;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt = parseArgs(argc, argv);
  banner("Ablation (beyond the paper): hash dispatch / inline caches / "
         "superblocks under DPEH",
         "each mechanism shaves monitor-dispatch share; architectural "
         "results identical in every configuration");

  workloads::ScaleConfig Scale = stdScale(Opt);
  // Kernel iteration count: a few memory refs per circuit, scaled like
  // the synthesized programs so table rows stay comparable.
  uint32_t KernelIters =
      static_cast<uint32_t>(Scale.TotalRefs / 8) + 1000;
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  std::vector<ConfigRow> Ladder = configLadder();

  std::vector<LadderRow> Rows = {
      {"164.gzip", workloads::findBenchmark("164.gzip")},
      {"179.art", workloads::findBenchmark("179.art")},
      {"410.bwaves", workloads::findBenchmark("410.bwaves")},
      {"433.milc", workloads::findBenchmark("433.milc")},
      {"453.povray", workloads::findBenchmark("453.povray")},
      {"482.sphinx3", workloads::findBenchmark("482.sphinx3")},
      {"k.callret", nullptr, workloads::buildCallRetKernel},
      {"k.loop3", nullptr, workloads::buildThreeBlockLoopKernel},
  };

  // --- detailed ladder over the subset -------------------------------
  std::vector<reporting::MatrixCell> Cells;
  for (const LadderRow &Row : Rows) {
    for (const ConfigRow &C : Ladder) {
      reporting::MatrixCell Cell;
      Cell.Info = Row.Info;
      Cell.Spec = Spec;
      Cell.Config = C.Config;
      Cell.Label = std::string(Row.Name) + " under dpeh/" + C.Name;
      if (Row.Kernel) {
        auto Kernel = Row.Kernel;
        auto Config = C.Config;
        Cell.Run = [Kernel, KernelIters, Spec, Config]() {
          return runKernel(Kernel, KernelIters, Spec, Config);
        };
      }
      Cells.push_back(std::move(Cell));
    }
  }
  std::vector<dbt::RunResult> Results =
      reporting::runPolicyMatrixChecked(Cells, Scale, Opt.Jobs);

  int Failures = 0;
  TablePrinter T({"Benchmark", "Config", "Cycles", "Monitor", "Chain",
                  "Traps", "TblHits", "IcFills", "Traces", "Speedup"});
  for (size_t B = 0; B != Rows.size(); ++B) {
    const dbt::RunResult &Base = Results[B * Ladder.size()];
    for (size_t C = 0; C != Ladder.size(); ++C) {
      const dbt::RunResult &R = Results[B * Ladder.size() + C];
      if (R.Checksum != Base.Checksum || R.MemoryHash != Base.MemoryHash) {
        std::fprintf(stderr,
                     "FAIL: %s diverged architecturally under %s "
                     "(checksum %016llx vs %016llx, memhash %016llx vs "
                     "%016llx)\n",
                     Rows[B].Name, Ladder[C].Name,
                     (unsigned long long)R.Checksum,
                     (unsigned long long)Base.Checksum,
                     (unsigned long long)R.MemoryHash,
                     (unsigned long long)Base.MemoryHash);
        ++Failures;
      }
      T.addRow({Rows[B].Name, Ladder[C].Name, withCommas(R.Cycles),
                withCommas(R.Counters.get("cycles.monitor")),
                withCommas(R.Counters.get("cycles.chain")),
                withCommas(R.Counters.get("dbt.fault_traps")),
                withCommas(R.Counters.get("dispatch.table_hits")),
                withCommas(R.Counters.get("dispatch.ic_fills")),
                withCommas(R.Counters.get("trace.formed")),
                signedPercent(reporting::gainOver(Base.Cycles, R.Cycles))});
    }
  }
  printTable(T, "ablation_dispatch");

  // --- architectural identity across ALL 21 selected benchmarks ------
  // all-on vs all-off at the same scale; any divergence is fatal.
  std::vector<const workloads::BenchmarkInfo *> Selected =
      workloads::selectedBenchmarks();
  std::vector<reporting::MatrixCell> IdCells;
  for (const workloads::BenchmarkInfo *Info : Selected) {
    IdCells.push_back({.Info = Info,
                       .Spec = Spec,
                       .Config = Ladder.front().Config,
                       .Label = std::string(Info->Name) + " identity/off"});
    IdCells.push_back({.Info = Info,
                       .Spec = Spec,
                       .Config = Ladder.back().Config,
                       .Label = std::string(Info->Name) + " identity/on"});
  }
  std::vector<dbt::RunResult> IdResults =
      reporting::runPolicyMatrixChecked(IdCells, Scale, Opt.Jobs);
  size_t IdFailures = 0;
  for (size_t I = 0; I != Selected.size(); ++I) {
    const dbt::RunResult &Off = IdResults[I * 2];
    const dbt::RunResult &On = IdResults[I * 2 + 1];
    if (Off.Checksum != On.Checksum || Off.MemoryHash != On.MemoryHash) {
      std::fprintf(stderr,
                   "FAIL: %s all-on diverged from all-off (checksum "
                   "%016llx vs %016llx, memhash %016llx vs %016llx)\n",
                   Selected[I]->Name, (unsigned long long)On.Checksum,
                   (unsigned long long)Off.Checksum,
                   (unsigned long long)On.MemoryHash,
                   (unsigned long long)Off.MemoryHash);
      ++IdFailures;
    }
  }
  Failures += static_cast<int>(IdFailures);
  std::printf("architectural identity: %zu/%zu benchmarks byte-identical "
              "all-on vs all-off\n\n",
              Selected.size() - IdFailures, Selected.size());

  // --- wall-clock advisory (stderr; machine-dependent) ---------------
  const workloads::BenchmarkInfo *Hot = workloads::findBenchmark("179.art");
  double BaseMips = engineMips(*Hot, Spec, Scale, Ladder.front().Config);
  double AllMips = engineMips(*Hot, Spec, Scale, Ladder.back().Config);
  std::fprintf(stderr,
               "advisory: engine wall-clock %.1f MIPS baseline vs %.1f "
               "MIPS all-on (%+.1f%%) on 179.art (machine-dependent)\n",
               BaseMips, AllMips,
               BaseMips > 0.0 ? (AllMips / BaseMips - 1.0) * 100.0 : 0.0);

  return Failures == 0 ? 0 : 1;
}
