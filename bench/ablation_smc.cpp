//===- bench/ablation_smc.cpp - SMC-coherence mechanism ablation ----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the guest-code coherence machinery under the hostile
/// workload suite (src/workloads/Hostile.h): what each invalidation
/// mechanism costs per self-modifying store — write-barrier hits,
/// precise translation invalidation, analysis re-runs and verdict
/// revocation, and the per-block SMC churn pin.  Not a paper
/// experiment: the CGO'09 paper assumes well-behaved SPEC guests; this
/// binary is the evidence that the MDA machinery stays *sound* when the
/// guest rewrites its own code.
///
/// Guarantees this binary enforces (exit nonzero on violation):
///  * oracle identity: every hostile program, under every one of the
///    paper's five MDA policies with Analysis+Verify on, reproduces the
///    pure interpreter's Checksum / MemoryHash / final registers
///    bit-exactly (the interpreter fetches fresh bytes every
///    instruction, so it is the SMC ground truth);
///  * zero verifier violations: every run completes with the host
///    code-cache verifier (invariant 8: no live translation built from
///    dirtied guest bytes) enabled;
///  * budget containment: the churn adversary's unbounded growth is
///    converted into a *typed* RunError by each budget ceiling, with
///    cumulative emitted code bytes bounded by the ceiling plus one
///    translation;
///  * determinism: the printed table depends only on modeled state, so
///    CI can diff it across --jobs values.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"

#include <cinttypes>

using namespace mdabt;
using namespace mdabt::bench;

namespace {

/// Run one hostile image under one policy spec.  StaticProfiling
/// profiles the same image (there is no separate train input for the
/// synthetic adversaries).
dbt::RunResult runHostile(const guest::GuestImage &Image,
                          const mda::PolicySpec &Spec,
                          const dbt::EngineConfig &Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

bool matchesOracle(const dbt::RunResult &R, const InterpOracle &O) {
  if (!R.completed() || R.Checksum != O.Checksum ||
      R.MemoryHash != O.MemoryHash)
    return false;
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    if (R.FinalCpu.Gpr[I] != O.Gpr[I])
      return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt = parseArgs(argc, argv);
  banner("Ablation (beyond the paper): guest-code coherence under hostile "
         "self-modifying guests",
         "every MDA policy stays byte-identical to the interpreter oracle "
         "while the guest rewrites its own code; budgets turn unbounded "
         "churn into typed errors");

  const struct {
    const char *Label;
    mda::PolicySpec Spec;
  } Cases[] = {
      {"direct", {mda::MechanismKind::Direct, 0, false, 0, false}},
      {"static", {mda::MechanismKind::StaticProfiling, 0, false, 0, false}},
      {"dyn@50", {mda::MechanismKind::DynamicProfiling, 50, false, 0, false}},
      {"eh+rearrange",
       {mda::MechanismKind::ExceptionHandling, 50, true, 0, false}},
      {"dpeh+retrans4", {mda::MechanismKind::Dpeh, 50, false, 4, false}},
  };
  constexpr size_t NumCases = sizeof(Cases) / sizeof(Cases[0]);

  std::vector<workloads::HostileProgram> Suite = workloads::hostileCatalog();

  // Interpreter oracles: the ground truth every engine run is diffed
  // against.  Cheap (tens of thousands of instructions), run serially.
  std::vector<InterpOracle> Oracles;
  for (const workloads::HostileProgram &P : Suite)
    Oracles.push_back(interpretOracle(P.Image));

  // Analysis + Verify on everywhere: the whole point is that the
  // alignment analysis (whose Elide verdicts SMC can invalidate) and
  // the structural verifier (invariant 8) are live while the guest
  // rewrites itself.
  dbt::EngineConfig Config;
  Config.Analysis = true;
  Config.Verify = true;
  // The adversarial dispatch path on top: superblocks fuse the patcher
  // with the code it patches (the configuration that forces the
  // episode-stop machinery, not just quarantine-before-next-dispatch),
  // and inline caches add the retirement surface SMC must also clear.
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;

  // --- coherence matrix: program x policy ----------------------------
  std::vector<reporting::MatrixCell> Cells;
  for (const workloads::HostileProgram &P : Suite) {
    for (size_t C = 0; C != NumCases; ++C) {
      reporting::MatrixCell Cell;
      Cell.Spec = Cases[C].Spec;
      Cell.Config = Config;
      Cell.Label = P.Name + " under " + Cases[C].Label;
      const guest::GuestImage *Image = &P.Image;
      mda::PolicySpec Spec = Cases[C].Spec;
      Cell.Run = [Image, Spec, Config]() {
        return runHostile(*Image, Spec, Config);
      };
      Cells.push_back(std::move(Cell));
    }
  }
  std::vector<dbt::RunResult> Results =
      reporting::runPolicyMatrixChecked(Cells, workloads::ScaleConfig(),
                                        Opt.Jobs);

  int Failures = 0;
  TablePrinter T({"Program", "Policy", "Cycles", "SmcStores", "Invals",
                  "Reanalyses", "Revoked", "Pins", "Translations",
                  "CodeBytes"});
  for (size_t P = 0; P != Suite.size(); ++P) {
    for (size_t C = 0; C != NumCases; ++C) {
      const dbt::RunResult &R = Results[P * NumCases + C];
      if (!matchesOracle(R, Oracles[P])) {
        std::fprintf(stderr,
                     "FAIL: %s diverged from the interpreter oracle under "
                     "%s (checksum %016llx vs %016llx, memhash %016llx vs "
                     "%016llx)\n",
                     Suite[P].Name.c_str(), Cases[C].Label,
                     (unsigned long long)R.Checksum,
                     (unsigned long long)Oracles[P].Checksum,
                     (unsigned long long)R.MemoryHash,
                     (unsigned long long)Oracles[P].MemoryHash);
        ++Failures;
      }
      T.addRow({Suite[P].Name, Cases[C].Label, withCommas(R.Cycles),
                withCommas(R.Counters.get("smc.stores")),
                withCommas(R.Counters.get("smc.invalidations")),
                withCommas(R.Counters.get("smc.reanalyses")),
                withCommas(R.Counters.get("smc.verdicts_revoked")),
                withCommas(R.Counters.get("smc.churn_pins")),
                withCommas(R.Counters.get("dbt.translations")),
                withCommas(R.Counters.get("budget.code_bytes_emitted"))});
    }
  }
  printTable(T, "ablation_smc");

  // The flip adversary must actually exercise the barrier under every
  // two-phase policy: a translated worker being patched means
  // invalidations, or the whole table above proves nothing.
  {
    const dbt::RunResult &Flip = Results[0 * NumCases + (NumCases - 1)];
    if (Flip.Counters.get("smc.invalidations") == 0) {
      std::fprintf(stderr,
                   "FAIL: smc.flip produced zero invalidations under "
                   "dpeh+retrans4 — the write barrier never fired\n");
      ++Failures;
    }
  }

  // --- budget containment on the churn adversary ---------------------
  // Each ceiling alone must convert unbounded churn into its own typed
  // RunError; the pin must instead *complete* the run (degradation).
  const guest::GuestImage Churn = workloads::smcChurnProgram(4, 4000);
  const InterpOracle ChurnOracle = interpretOracle(Churn);
  const mda::PolicySpec ChurnSpec = Cases[NumCases - 1].Spec;

  struct BudgetCase {
    const char *Label;
    dbt::BudgetConfig Budget;
    dbt::RunError Expect; ///< None = must complete (degradation path)
  };
  const BudgetCase BudgetCases[] = {
      {"max-translations=64", {64, 0, 0, 0},
       dbt::RunError::BudgetTranslations},
      {"max-code-bytes=32768", {0, 32768, 0, 0},
       dbt::RunError::BudgetCodeBytes},
      {"max-churn=128", {0, 0, 128, 0}, dbt::RunError::BudgetChurn},
      {"churn-pin@4", {0, 0, 0, 4}, dbt::RunError::None},
  };
  constexpr size_t NumBudget = sizeof(BudgetCases) / sizeof(BudgetCases[0]);

  std::vector<reporting::MatrixCell> BudgetCells;
  for (size_t B = 0; B != NumBudget; ++B) {
    reporting::MatrixCell Cell;
    Cell.Label = std::string("smc.churn under ") + BudgetCases[B].Label;
    dbt::EngineConfig BC = Config;
    BC.Budget = BudgetCases[B].Budget;
    const guest::GuestImage *Image = &Churn;
    Cell.Run = [Image, ChurnSpec, BC]() {
      return runHostile(*Image, ChurnSpec, BC);
    };
    BudgetCells.push_back(std::move(Cell));
  }
  std::vector<dbt::RunResult> BudgetResults =
      reporting::runMatrix(BudgetCells, workloads::ScaleConfig(), Opt.Jobs);

  TablePrinter BT({"Ceiling", "Outcome", "Translations", "CodeBytes",
                   "Churn", "Pins"});
  for (size_t B = 0; B != NumBudget; ++B) {
    const dbt::RunResult &R = BudgetResults[B];
    const BudgetCase &BC = BudgetCases[B];
    if (R.Error != BC.Expect) {
      std::fprintf(stderr,
                   "FAIL: smc.churn under %s ended with %s (expected %s)\n",
                   BC.Label, dbt::runErrorName(R.Error),
                   dbt::runErrorName(BC.Expect));
      ++Failures;
    }
    if (BC.Budget.MaxCodeBytes != 0) {
      // Bounded growth: the abort must land within one translation of
      // the ceiling, not after another flush-and-refill cycle.
      uint64_t Emitted = R.Counters.get("budget.code_bytes_emitted");
      if (Emitted > BC.Budget.MaxCodeBytes + 4096) {
        std::fprintf(stderr,
                     "FAIL: code-bytes ceiling %" PRIu64 " overshot to "
                     "%" PRIu64 "\n",
                     BC.Budget.MaxCodeBytes, Emitted);
        ++Failures;
      }
    }
    if (BC.Expect == dbt::RunError::None) {
      if (!matchesOracle(R, ChurnOracle)) {
        std::fprintf(stderr, "FAIL: churn-pin run diverged from the "
                             "interpreter oracle\n");
        ++Failures;
      }
      if (R.Counters.get("smc.churn_pins") == 0) {
        std::fprintf(stderr, "FAIL: churn-pin run never pinned a block\n");
        ++Failures;
      }
    }
    BT.addRow({BC.Label, dbt::runErrorName(R.Error),
               withCommas(R.Counters.get("dbt.translations")),
               withCommas(R.Counters.get("budget.code_bytes_emitted")),
               withCommas(R.Counters.get("dbt.supersedes") +
                          R.Counters.get("smc.invalidations")),
               withCommas(R.Counters.get("smc.churn_pins"))});
  }
  printTable(BT, "ablation_smc_budgets");

  if (Failures == 0)
    std::printf("smc ablation passed: %zu programs x %zu policies "
                "byte-identical to the interpreter oracle\n",
                Suite.size(), NumCases);
  return Failures == 0 ? 0 : 1;
}
