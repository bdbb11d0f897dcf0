//===- tests/chaos_test.cpp - Fault-injection and degradation tests -------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the chaos subsystem and the engine's graceful-degradation
/// machinery: injector determinism, containment of each fault class
/// (dropped/torn patches, lost/duplicate/spurious traps, translator
/// failures, flush storms), the trap-storm watchdog ladder, and the
/// reachability of every typed RunError.  The robustness contract under
/// test: a chaos run either completes bit-identical to the fault-free
/// oracle or aborts with a typed RunError — never a wedge, never silent
/// corruption.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HostVerifier.h"
#include "chaos/FaultInjector.h"
#include "chaos/FaultPlan.h"
#include "dbt/TranslationService.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"
#include "mda/PolicyFactory.h"
#include "mda/Policies.h"
#include "workloads/Hostile.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

dbt::RunResult runChaos(const guest::GuestImage &Image,
                        dbt::MdaPolicy &Policy,
                        const chaos::FaultPlan &Plan,
                        dbt::EngineConfig Config = dbt::EngineConfig()) {
  Config.Chaos = &Plan;
  // Bound the run so an uncontained livelock fails fast as
  // MonitorStepLimit instead of hanging the test.
  Config.MaxMonitorSteps = 2'000'000;
  dbt::Engine Engine(Image, Policy, Config);
  return Engine.run();
}

} // namespace

// ---- injector unit behaviour ----------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  chaos::FaultPlan Plan;
  Plan.Seed = 42;
  Plan.LostTrapRate = 0.3;
  Plan.PatchDropRate = 0.2;
  Plan.PatchTornRate = 0.2;
  Plan.TranslateFailRate = 0.1;
  chaos::FaultInjector A(Plan), B(Plan);
  for (int I = 0; I != 500; ++I) {
    EXPECT_EQ(A.lostTrap(), B.lostTrap());
    EXPECT_EQ(A.patchFault(), B.patchFault());
    EXPECT_EQ(A.translateFails(), B.translateFails());
  }
  EXPECT_EQ(A.injected(), B.injected());
}

TEST(FaultInjectorTest, BudgetCapsInjections) {
  chaos::FaultPlan Plan;
  Plan.Seed = 7;
  Plan.LostTrapRate = 1.0;
  Plan.MaxInjections = 16;
  chaos::FaultInjector Inj(Plan);
  int Fired = 0;
  for (int I = 0; I != 1000; ++I)
    Fired += Inj.lostTrap() ? 1 : 0;
  EXPECT_EQ(Fired, 16);
  EXPECT_EQ(Inj.injected(), 16u);
}

TEST(FaultInjectorTest, ExactTranslationFailure) {
  chaos::FaultPlan Plan;
  Plan.TranslateFailAt = 3;
  chaos::FaultInjector Inj(Plan);
  EXPECT_FALSE(Inj.translateFails());
  EXPECT_FALSE(Inj.translateFails());
  EXPECT_TRUE(Inj.translateFails());
  EXPECT_FALSE(Inj.translateFails());
}

TEST(FaultInjectorTest, RandomizedPlanIsDeterministic) {
  chaos::FaultPlan A = chaos::FaultPlan::randomized(99);
  chaos::FaultPlan B = chaos::FaultPlan::randomized(99);
  EXPECT_EQ(A.LostTrapRate, B.LostTrapRate);
  EXPECT_EQ(A.DuplicateTrapRate, B.DuplicateTrapRate);
  EXPECT_EQ(A.SpuriousTrapRate, B.SpuriousTrapRate);
  EXPECT_EQ(A.PatchDropRate, B.PatchDropRate);
  EXPECT_EQ(A.PatchTornRate, B.PatchTornRate);
  EXPECT_EQ(A.TranslateFailRate, B.TranslateFailRate);
  EXPECT_EQ(A.TranslateFailAt, B.TranslateFailAt);
  EXPECT_EQ(A.FlushStormRate, B.FlushStormRate);
  EXPECT_EQ(A.MaxInjections, B.MaxInjections);
}

// ---- containment: each fault class alone ----------------------------------

TEST(ChaosEngineTest, DroppedPatchesAreContained) {
  guest::GuestImage Image = misalignedSumProgram(400);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 11;
  Plan.PatchDropRate = 0.7;
  Plan.MaxInjections = 64;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "dropped patches");
  EXPECT_GT(R.Counters.get("chaos.patch_drops"), 0u);
  // Every abandoned patch was followed by a Fixup, never a corrupt word.
  EXPECT_EQ(R.Counters.get("run.error"), 0u);
}

TEST(ChaosEngineTest, TornPatchesAreRepairedOrRolledBack) {
  guest::GuestImage Image = misalignedSumProgram(400);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 12;
  Plan.PatchTornRate = 0.6;
  Plan.MaxInjections = 48;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "torn patches");
  EXPECT_GT(R.Counters.get("chaos.patch_tears"), 0u);
  EXPECT_GT(R.Counters.get("harden.patch_repairs") +
                R.Counters.get("harden.patch_failures"),
            0u);
}

TEST(ChaosEngineTest, TornAndDroppedPatchSoakNeverExecutesStaleCode) {
  // Combined high-rate drop+tear campaigns across the patch-heavy
  // policies.  The engine executes out of the predecoded code-cache
  // view, so any mutation path that failed to refresh it — stub
  // patches, chain/unchain, adaptive reverts, capacity flushes, torn
  // words rolled back by the repair path — would execute a stale
  // instruction and diverge from the oracle.
  guest::GuestImage Image = lateOnsetProgram(600, 150);
  Oracle O = interpretOracle(Image);
  const mda::PolicySpec Specs[] = {
      {mda::MechanismKind::ExceptionHandling, 10, false, 0, false},
      {mda::MechanismKind::Dpeh, 10, false, 2, false},
  };
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    chaos::FaultPlan Plan;
    Plan.Seed = 7000 + Seed;
    Plan.PatchDropRate = 0.5;
    Plan.PatchTornRate = 0.5;
    Plan.MaxInjections = 96;
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Specs[Seed % 2]);
    dbt::EngineConfig Config;
    if (Seed % 3 == 1)
      Config.CodeCacheLimitWords = 200; // capacity flushes in the mix
    dbt::RunResult R = runChaos(Image, *Policy, Plan, Config);
    if (R.completed()) {
      expectMatchesOracle(
          R, O, ("patch soak seed " + std::to_string(Seed)).c_str());
    } else {
      EXPECT_NE(R.Error, dbt::RunError::MonitorStepLimit)
          << "patch soak " << Seed << " wedged";
    }
  }
}

TEST(ChaosEngineTest, LostTrapStormIsContainedByWatchdog) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 13;
  Plan.LostTrapRate = 1.0;
  Plan.MaxInjections = 256;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "lost-trap storm");
  EXPECT_GT(R.Counters.get("chaos.lost_traps"), 0u);
  EXPECT_GT(R.Counters.get("harden.watchdog_trips"), 0u);
}

TEST(ChaosEngineTest, DuplicateTrapsAreHarmless) {
  guest::GuestImage Image = misalignedSumProgram(400);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 14;
  Plan.DuplicateTrapRate = 1.0;
  Plan.MaxInjections = 128;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "duplicate traps");
  EXPECT_GT(R.Counters.get("chaos.dup_traps"), 0u);
  // The duplicate delivery of a patched word is recognized as stale.
  EXPECT_GT(R.Counters.get("harden.spurious_traps"), 0u);
}

TEST(ChaosEngineTest, SpuriousTrapsAreRejected) {
  guest::GuestImage Image = misalignedSumProgram(400);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 15;
  Plan.SpuriousTrapRate = 0.5;
  Plan.MaxInjections = 128;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "spurious traps");
  EXPECT_GT(R.Counters.get("chaos.spurious_traps"), 0u);
}

TEST(ChaosEngineTest, TranslatorFailureFallsBackToInterpreter) {
  guest::GuestImage Image = misalignedSumProgram(400);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 16;
  Plan.TranslateFailRate = 1.0;
  Plan.MaxInjections = 0; // unlimited: the block must get pinned
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "translator failure");
  EXPECT_GT(R.Counters.get("harden.translate_failures"), 0u);
  EXPECT_GT(R.Counters.get("harden.ladder_interp_only"), 0u);
  EXPECT_EQ(R.Counters.get("dbt.translations"), 0u);
}

TEST(ChaosEngineTest, ExactTranslationFailureIsTransparent) {
  guest::GuestImage Image = lateOnsetProgram(600, 300);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.TranslateFailAt = 1; // first translation attempt fails
  mda::DpehPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "exact translation failure");
  EXPECT_EQ(R.Counters.get("chaos.translate_fail"), 1u);
  EXPECT_GT(R.Counters.get("dbt.translations"), 0u); // retried fine
}

TEST(ChaosEngineTest, FlushStormIsBackedOffAndSurvived) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  chaos::FaultPlan Plan;
  Plan.Seed = 17;
  Plan.FlushStormRate = 1.0;
  Plan.MaxInjections = 200;
  mda::DpehPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  expectMatchesOracle(R, O, "flush storm");
  EXPECT_GT(R.Counters.get("chaos.flush_storms"), 0u);
  EXPECT_GT(R.Counters.get("dbt.flushes"), 0u);
  EXPECT_GT(R.Counters.get("harden.flush_suppressed"), 0u);
}

// ---- typed aborts: every tolerance ceiling is reachable --------------------

TEST(ChaosEngineTest, TrapStormAbortsWhenLadderBudgetExhausted) {
  guest::GuestImage Image = misalignedSumProgram(600);
  chaos::FaultPlan Plan;
  Plan.Seed = 18;
  Plan.LostTrapRate = 1.0;
  Plan.MaxInjections = 0; // sustained storm, never heals
  dbt::EngineConfig Config;
  Config.Hardening.MaxWatchdogTrips = 1;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan, Config);
  EXPECT_FALSE(R.completed());
  EXPECT_EQ(R.Error, dbt::RunError::TrapStorm);
  EXPECT_STREQ(dbt::runErrorName(R.Error), "trap-storm");
}

TEST(ChaosEngineTest, PatchFailureCeilingAborts) {
  guest::GuestImage Image = misalignedSumProgram(600);
  chaos::FaultPlan Plan;
  Plan.Seed = 19;
  Plan.PatchDropRate = 1.0;
  Plan.MaxInjections = 0;
  dbt::EngineConfig Config;
  Config.Hardening.PatchFailureLimit = 2;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan, Config);
  EXPECT_FALSE(R.completed());
  EXPECT_EQ(R.Error, dbt::RunError::PatchFailed);
}

TEST(ChaosEngineTest, UnrepairableTornWordAborts) {
  guest::GuestImage Image = misalignedSumProgram(600);
  chaos::FaultPlan Plan;
  Plan.Seed = 20;
  Plan.PatchTornRate = 1.0; // every write torn, including the rollback
  Plan.MaxInjections = 0;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan);
  EXPECT_FALSE(R.completed());
  EXPECT_EQ(R.Error, dbt::RunError::PatchFailed);
}

TEST(ChaosEngineTest, TranslationFailureCeilingAborts) {
  guest::GuestImage Image = misalignedSumProgram(600);
  chaos::FaultPlan Plan;
  Plan.Seed = 21;
  Plan.TranslateFailRate = 1.0;
  Plan.MaxInjections = 0;
  dbt::EngineConfig Config;
  Config.Hardening.TranslationFailureLimit = 2;
  mda::ExceptionHandlingPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan, Config);
  EXPECT_FALSE(R.completed());
  EXPECT_EQ(R.Error, dbt::RunError::TranslationFailed);
}

TEST(ChaosEngineTest, FlushCeilingAbortsAsCacheThrash) {
  guest::GuestImage Image = misalignedSumProgram(600);
  chaos::FaultPlan Plan;
  Plan.Seed = 22;
  Plan.FlushStormRate = 1.0;
  Plan.MaxInjections = 0;
  dbt::EngineConfig Config;
  Config.Hardening.FlushLimit = 3;
  // No backoff: every storm request lands, so the ceiling is reached
  // within the program's handful of monitor dispatches.
  Config.Hardening.FlushStormBackoffSteps = 1;
  mda::DpehPolicy Policy(10);
  dbt::RunResult R = runChaos(Image, Policy, Plan, Config);
  EXPECT_FALSE(R.completed());
  EXPECT_EQ(R.Error, dbt::RunError::CacheThrash);
}

// ---- determinism and randomized mini-soak ----------------------------------

TEST(ChaosEngineTest, CampaignsReplayBitIdentically) {
  guest::GuestImage Image = lateOnsetProgram(800, 200);
  chaos::FaultPlan Plan = chaos::FaultPlan::randomized(1234);
  mda::ExceptionHandlingPolicy P1(10), P2(10);
  dbt::RunResult A = runChaos(Image, P1, Plan);
  dbt::RunResult B = runChaos(Image, P2, Plan);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  ASSERT_EQ(A.Counters.entries().size(), B.Counters.entries().size());
  for (const auto &Entry : A.Counters.entries())
    EXPECT_EQ(Entry.second, B.Counters.get(Entry.first)) << Entry.first;
}

TEST(ChaosEngineTest, RandomizedCampaignsNeverWedgeOrCorrupt) {
  guest::GuestImage Image = lateOnsetProgram(600, 150);
  Oracle O = interpretOracle(Image);
  const mda::PolicySpec Specs[] = {
      {mda::MechanismKind::Direct, 0, false, 0, false},
      {mda::MechanismKind::DynamicProfiling, 10, false, 0, false},
      {mda::MechanismKind::ExceptionHandling, 10, true, 0, false},
      {mda::MechanismKind::Dpeh, 10, false, 4, false},
  };
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(5000 + Seed);
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Specs[Seed % 4]);
    dbt::EngineConfig Config;
    if (Seed % 3 == 1)
      Config.CodeCacheLimitWords = 200;
    if (Seed % 3 == 2)
      Config.FlushOnSupersede = true;
    dbt::RunResult R = runChaos(Image, *Policy, Plan, Config);
    if (R.completed()) {
      expectMatchesOracle(
          R, O, ("chaos seed " + std::to_string(Seed)).c_str());
    } else {
      // A typed abort is acceptable; a step-guard trip is a wedge.
      EXPECT_NE(R.Error, dbt::RunError::MonitorStepLimit)
          << "campaign " << Seed << " wedged";
    }
  }
}

TEST(ChaosEngineTest, DispatchMechanismsSurviveRandomizedCampaigns) {
  // Hash dispatch, inline caches, and superblocks all add mutable
  // host-code surface (table entries, IC guard words, trace installs
  // with chain redirection); under randomized injection they must keep
  // the same contract as the baseline — survive bit-exactly or abort
  // with a typed error, never wedge, never pass verification with a
  // structurally broken cache.
  guest::GuestImage Image = lateOnsetProgram(600, 150);
  Oracle O = interpretOracle(Image);
  const mda::PolicySpec Specs[] = {
      {mda::MechanismKind::ExceptionHandling, 10, true, 0, false},
      {mda::MechanismKind::Dpeh, 10, false, 4, false},
  };
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(9100 + Seed);
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Specs[Seed % 2]);
    dbt::EngineConfig Config;
    Config.HashDispatch = true;
    Config.InlineCaches = true;
    Config.Superblocks = true;
    Config.Verify = true;
    if (Seed % 3 == 1)
      Config.CodeCacheLimitWords = 200;
    if (Seed % 3 == 2)
      Config.FlushOnSupersede = true;
    dbt::RunResult R = runChaos(Image, *Policy, Plan, Config);
    if (R.completed()) {
      expectMatchesOracle(
          R, O, ("dispatch chaos seed " + std::to_string(Seed)).c_str());
    } else {
      EXPECT_NE(R.Error, dbt::RunError::MonitorStepLimit)
          << "dispatch campaign " << Seed << " wedged";
    }
  }
}

// ---- code-cache verifier under injection -----------------------------------

namespace {

/// A miniature translation laid out the way the engine does it: a body
/// with one trapping-capable memory op and an exit, followed by an MDA
/// stub that branches back past the fault site.  Returns the verifier's
/// view of it.
struct FakeTranslation {
  uint32_t FaultWord = 0;
  uint32_t ExitWord = 0;
  analysis::VerifierInput Input;

  explicit FakeTranslation(host::CodeSpace &Code) {
    host::HostAssembler Asm(Code);
    uint32_t Entry = Asm.pos();
    FaultWord = Asm.mem(host::HostOp::Ldl, 3, 2, 4);
    ExitWord = Asm.emit(host::srvInst(host::SrvFunc::Exit));
    uint32_t BodyEnd = Asm.pos();
    uint32_t StubBegin = Asm.pos();
    host::emitMdaLoad(Asm, 4, 3, 4, 2);
    Asm.brTo(FaultWord + 1);
    uint32_t StubEnd = Asm.pos();
    Asm.finish();
    Input.Blocks.push_back({Entry,
                            BodyEnd,
                            {{StubBegin, StubEnd}},
                            {{FaultWord, /*Reverted=*/false}},
                            {ExitWord},
                            /*IcWays=*/{}});
  }

  /// The word the engine would patch over the fault site.
  uint32_t patchWord(const host::CodeSpace &Code) const {
    uint32_t StubBegin = Input.Blocks[0].Stubs[0].Begin;
    (void)Code;
    return host::encodeHost(host::brInst(
        host::HostOp::Br, host::RegZero,
        static_cast<int32_t>(StubBegin) -
            static_cast<int32_t>(FaultWord + 1)));
  }
};

} // namespace

TEST(ChaosVerifierTest, CleanPatchedTranslationPasses) {
  host::CodeSpace Code;
  FakeTranslation T(Code);
  Code.patch(T.FaultWord, T.patchWord(Code));
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, T.Input);
  EXPECT_TRUE(R.ok()) << (R.Issues.empty()
                              ? ""
                              : analysis::verifyIssueToString(R.Issues[0]));
  EXPECT_EQ(R.MdaSequencesChecked, 1u);
}

TEST(ChaosVerifierTest, DroppedPatchIsFlaggedBeforeExecution) {
  // The injector swallows the stub-redirect write, so the fault site
  // still holds the original memory op while the engine's bookkeeping
  // says it was patched.  The verifier must flag the stale site purely
  // structurally — no run, no architectural-state comparison.
  host::CodeSpace Code;
  FakeTranslation T(Code);
  Code.setPatchHook([](uint32_t, uint32_t &) { return false; });
  Code.patch(T.FaultWord, T.patchWord(Code));
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, T.Input);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::PatchSiteBad);
  EXPECT_EQ(R.Issues[0].Word, T.FaultWord);
}

TEST(ChaosVerifierTest, TornPatchIsFlaggedBeforeExecution) {
  // The injector corrupts the written word instead of dropping it.
  host::CodeSpace Code;
  FakeTranslation T(Code);
  Code.setPatchHook([](uint32_t, uint32_t &Word) {
    Word ^= 0x00040001; // torn write: displacement bits flipped
    return true;
  });
  Code.patch(T.FaultWord, T.patchWord(Code));
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, T.Input);
  ASSERT_FALSE(R.ok());
  bool FlaggedAtSite = false;
  for (const analysis::VerifyIssue &I : R.Issues)
    FlaggedAtSite |= I.Word == T.FaultWord;
  EXPECT_TRUE(FlaggedAtSite);
}

TEST(ChaosVerifierTest, CampaignsWithVerifierKeepSurvivalContract) {
  // The full chaos mini-soak with the verifier on: every campaign still
  // either survives bit-exactly or aborts typed, and a verifier abort
  // is itself a typed outcome — never a wedge, never silent corruption.
  guest::GuestImage Image = lateOnsetProgram(600, 150);
  Oracle O = interpretOracle(Image);
  const mda::PolicySpec Specs[] = {
      {mda::MechanismKind::DynamicProfiling, 10, false, 0, false},
      {mda::MechanismKind::ExceptionHandling, 10, true, 0, false},
      {mda::MechanismKind::Dpeh, 10, false, 4, false},
  };
  uint64_t VerifierPassTotal = 0;
  for (uint64_t Seed = 0; Seed != 18; ++Seed) {
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(9000 + Seed);
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Specs[Seed % 3]);
    dbt::EngineConfig Config;
    Config.Verify = true;
    if (Seed % 3 == 1)
      Config.CodeCacheLimitWords = 200;
    dbt::RunResult R = runChaos(Image, *Policy, Plan, Config);
    VerifierPassTotal += R.Counters.get("verify.passes");
    if (R.completed()) {
      expectMatchesOracle(
          R, O, ("verified chaos seed " + std::to_string(Seed)).c_str());
      // A run that claims success must have a clean cache throughout.
      EXPECT_EQ(R.Counters.get("verify.issues"), 0u) << "seed " << Seed;
    } else {
      EXPECT_NE(R.Error, dbt::RunError::MonitorStepLimit)
          << "verified campaign " << Seed << " wedged";
    }
  }
  EXPECT_GT(VerifierPassTotal, 0u);
}

TEST(ChaosVerifierTest, VerifierIsFreeWhenDisabled) {
  guest::GuestImage Image = misalignedSumProgram(300);
  mda::ExceptionHandlingPolicy P1(10), P2(10);
  dbt::RunResult A = dbt::Engine(Image, P1).run();
  dbt::EngineConfig Config;
  Config.Verify = true;
  dbt::RunResult B = dbt::Engine(Image, P2, Config).run();
  // The verifier is an observer: modeled cycles and architectural state
  // are untouched; only the verification counters appear.
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  EXPECT_GT(B.Counters.get("verify.passes"), 0u);
  EXPECT_EQ(B.Counters.get("verify.issues"), 0u);
  EXPECT_EQ(A.Counters.get("verify.passes"), 0u);
}

// ---- baseline purity --------------------------------------------------------

TEST(ChaosVerifierTest, InjectedCorruptionIsCaughtAtPinnedSweeps) {
  // Where each verified chaos campaign ends, and after how many
  // verifier sweeps.  The table was captured from the verifier that
  // re-checked the whole cache on every sweep; a verifier that
  // remembers what it proved must reproduce every tuple, so a run ends
  // at the same sweep with the same verdict.  (No campaign here ends in
  // VerifyFailed: the hardened engine repairs or aborts on each
  // injected fault before a sweep sees it.)
  struct Pinned {
    dbt::RunError Error;
    uint64_t Passes;
    uint64_t Issues;
  };
  const Pinned Table[24] = {
      {dbt::RunError::None, 5, 0},   {dbt::RunError::None, 16, 0},
      {dbt::RunError::None, 303, 0}, {dbt::RunError::None, 18, 0},
      {dbt::RunError::None, 550, 0}, {dbt::RunError::None, 1, 0},
      {dbt::RunError::None, 12, 0},  {dbt::RunError::None, 481, 0},
      {dbt::RunError::None, 11, 0},  {dbt::RunError::None, 710, 0},
      {dbt::RunError::None, 7, 0},   {dbt::RunError::None, 11, 0},
      {dbt::RunError::None, 12, 0},  {dbt::RunError::PatchFailed, 4, 0},
      {dbt::RunError::None, 1, 0},   {dbt::RunError::None, 20, 0},
      {dbt::RunError::None, 5, 0},   {dbt::RunError::None, 351, 0},
      {dbt::RunError::None, 7, 0},   {dbt::RunError::None, 6, 0},
      {dbt::RunError::None, 5, 0},   {dbt::RunError::None, 25, 0},
      {dbt::RunError::None, 355, 0}, {dbt::RunError::None, 72, 0},
  };
  const guest::GuestImage Images[] = {lateOnsetProgram(600, 150),
                                      workloads::smcFlipProgram(200),
                                      workloads::smcChurnProgram(3, 60)};
  const mda::PolicySpec Specs[] = {
      {mda::MechanismKind::DynamicProfiling, 10, false, 0, false},
      {mda::MechanismKind::ExceptionHandling, 10, true, 0, false},
      {mda::MechanismKind::Dpeh, 10, false, 4, false},
      {mda::MechanismKind::ExceptionHandling, 10, false, 0, false},
  };
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    const guest::GuestImage &Image =
        Images[Seed % 5 == 4 ? 1 : Seed % 5 == 2 ? 2 : 0];
    chaos::FaultPlan Plan = chaos::FaultPlan::randomized(9000 + Seed);
    std::unique_ptr<dbt::MdaPolicy> Policy =
        mda::makePolicy(Specs[Seed % 4]);
    dbt::EngineConfig Config;
    Config.Verify = true;
    if (Seed % 3 == 1)
      Config.CodeCacheLimitWords = 200;
    if (Seed % 3 == 2)
      Config.FlushOnSupersede = true;
    if (Seed % 2 == 1) {
      Config.HashDispatch = true;
      Config.InlineCaches = true;
      Config.Superblocks = true;
    }
    if (Seed % 4 == 2)
      Config.Fusion = true;
    if (Seed % 6 == 3)
      Config.Aot = dbt::AotMode::Hybrid;
    dbt::RunResult R = runChaos(Image, *Policy, Plan, Config);
    EXPECT_EQ(R.Error, Table[Seed].Error)
        << "seed " << Seed << ": " << dbt::runErrorName(R.Error);
    EXPECT_EQ(R.Counters.get("verify.passes"), Table[Seed].Passes)
        << "seed " << Seed;
    EXPECT_EQ(R.Counters.get("verify.issues"), Table[Seed].Issues)
        << "seed " << Seed;
  }
}

TEST(ChaosEngineTest, DisabledPlanLeavesRunUntouched) {
  guest::GuestImage Image = misalignedSumProgram(300);
  chaos::FaultPlan Empty; // all rates zero: enabled() == false
  mda::ExceptionHandlingPolicy P1(10), P2(10);
  dbt::Engine E1(Image, P1);
  dbt::RunResult A = E1.run();
  dbt::EngineConfig Config;
  Config.Chaos = &Empty;
  dbt::Engine E2(Image, P2, Config);
  dbt::RunResult B = E2.run();
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  EXPECT_EQ(B.Counters.get("chaos.injected"), 0u);
}

// ---- shared-cache chaos: cross-tenant isolation ----------------------------
//
// The serving contract under chaos (docs/SERVING.md): faults injected
// into one tenant's run may degrade THAT tenant -- typed abort or
// bit-identical completion, as above -- but can never retire, corrupt,
// or leak into translations other tenants reach through the same
// SharedTranslationCache, and can never strand a lease.

namespace {

/// Serving configuration used by the shared-cache chaos tests: verifier
/// armed (a corrupt cached body is a typed abort, not silent reuse),
/// analysis on (the hostile SMC tenants require the write monitor), the
/// full dispatch surface, all bound to one shared service.
dbt::EngineConfig sharedConfig(dbt::TranslationService *Service) {
  dbt::EngineConfig Config;
  Config.Verify = true;
  Config.Analysis = true;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  Config.Service = Service;
  return Config;
}

dbt::RunResult runServed(const guest::GuestImage &Image,
                         const mda::PolicySpec &Spec,
                         dbt::EngineConfig Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

dbt::RunResult runServedChaos(const guest::GuestImage &Image,
                              const mda::PolicySpec &Spec,
                              const chaos::FaultPlan &Plan,
                              dbt::EngineConfig Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  return runChaos(Image, *Policy, Plan, Config);
}

mda::PolicySpec servedEh() {
  return {mda::MechanismKind::ExceptionHandling, 50, true, 0, false};
}
mda::PolicySpec servedDpeh() {
  return {mda::MechanismKind::Dpeh, 50, false, 4, false};
}

} // namespace

TEST(ChaosServingTest, ChaosTenantCannotRetireOtherTenantsEntries) {
  guest::GuestImage Clean = misalignedSumProgram(400);
  Oracle O = interpretOracle(Clean);
  dbt::TranslationService Service;

  // A well-behaved tenant warms the shared cache.
  dbt::RunResult Warm0 = runServed(Clean, servedEh(), sharedConfig(&Service));
  expectMatchesOracle(Warm0, O, "clean tenant, cold");
  uint64_t Entries = Service.cache().entries();
  ASSERT_GT(Entries, 0u);

  // A hostile tenant hammers the same service with torn patches, dropped
  // patches and flush storms.  Its own run may degrade; the shared
  // entries must survive untouched.
  chaos::FaultPlan Plan;
  Plan.Seed = 2024;
  Plan.PatchTornRate = 0.3;
  Plan.PatchDropRate = 0.2;
  Plan.FlushStormRate = 0.1;
  const workloads::HostileProgram H = workloads::hostileCatalog().front();
  dbt::RunResult HBase = runServed(H.Image, servedDpeh(), sharedConfig(nullptr));
  dbt::RunResult RChaos =
      runServedChaos(H.Image, servedDpeh(), Plan, sharedConfig(&Service));
  if (RChaos.completed()) {
    EXPECT_EQ(RChaos.Checksum, HBase.Checksum) << "chaos tenant corrupted";
    EXPECT_EQ(RChaos.MemoryHash, HBase.MemoryHash) << "chaos tenant corrupted";
  }

  // The clean tenant's translations are still resident: a re-run is
  // all hits, and still bit-identical to the interpreter oracle.
  EXPECT_GE(Service.cache().entries(), Entries)
      << "chaos tenant retired shared entries";
  dbt::RunResult Warm1 = runServed(Clean, servedEh(), sharedConfig(&Service));
  expectMatchesOracle(Warm1, O, "clean tenant, after chaos neighbour");
  EXPECT_EQ(Warm1.Counters.get("cache.misses"), 0u)
      << "chaos tenant forced re-translation of a clean tenant";
  EXPECT_GT(Warm1.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
}

TEST(ChaosServingTest, EntriesPublishedUnderChaosAreSafeToReuse) {
  // The publisher runs entirely under fault injection.  Anything it
  // manages to publish must still be the translator's exact output:
  // a later clean tenant reusing those entries has to be byte-identical
  // to a tenant that never shared a cache with anyone.
  guest::GuestImage Image = misalignedSumProgram(500);
  chaos::FaultPlan Plan;
  Plan.Seed = 77;
  Plan.PatchTornRate = 0.3;
  Plan.TranslateFailRate = 0.2;
  Plan.FlushStormRate = 0.05;

  dbt::TranslationService Service;
  dbt::RunResult RChaos =
      runServedChaos(Image, servedEh(), Plan, sharedConfig(&Service));
  EXPECT_GT(RChaos.Counters.get("chaos.injected"), 0u);
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";

  dbt::EngineConfig Isolated = sharedConfig(nullptr);
  dbt::RunResult Expected = runServed(Image, servedEh(), Isolated);
  dbt::RunResult RClean = runServed(Image, servedEh(), sharedConfig(&Service));
  EXPECT_EQ(RClean.Error, Expected.Error);
  EXPECT_EQ(RClean.Checksum, Expected.Checksum);
  EXPECT_EQ(RClean.MemoryHash, Expected.MemoryHash);
  // Reusing entries is cheaper than translating, never dearer: modeled
  // cycles may only drop relative to the isolated tenant.
  EXPECT_LE(RClean.Cycles, Expected.Cycles);
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
}

TEST(ChaosServingTest, ConcurrentChaosAndCleanTenantsDoNotBleed) {
  // Chaos and clean tenants interleave on one service from several
  // threads; the clean tenants hold leases while the chaos tenants
  // storm flushes and tear patches next door.
  guest::GuestImage Clean = misalignedSumProgram(300);
  Oracle O = interpretOracle(Clean);
  const std::vector<workloads::HostileProgram> Hostile =
      workloads::hostileCatalog();
  std::vector<dbt::RunResult> HostileBase;
  for (const workloads::HostileProgram &H : Hostile)
    HostileBase.push_back(
        runServed(H.Image, servedDpeh(), sharedConfig(nullptr)));

  dbt::TranslationService Service;
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Rounds = 3;
  std::vector<dbt::RunResult> CleanRuns(NumThreads * Rounds);
  std::vector<dbt::RunResult> ChaosRuns(NumThreads * Rounds);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned R = 0; R != Rounds; ++R) {
        unsigned Slot = T * Rounds + R;
        if (T % 2 == 0) {
          CleanRuns[Slot] =
              runServed(Clean, servedEh(), sharedConfig(&Service));
        } else {
          chaos::FaultPlan Plan = chaos::FaultPlan::randomized(9000 + Slot);
          const workloads::HostileProgram &H = Hostile[Slot % Hostile.size()];
          ChaosRuns[Slot] = runServedChaos(H.Image, servedDpeh(), Plan,
                                           sharedConfig(&Service));
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 0; T != NumThreads; ++T) {
    for (unsigned R = 0; R != Rounds; ++R) {
      unsigned Slot = T * Rounds + R;
      if (T % 2 == 0) {
        expectMatchesOracle(CleanRuns[Slot], O, "clean tenant under chaos");
      } else if (ChaosRuns[Slot].completed()) {
        const dbt::RunResult &Base = HostileBase[Slot % Hostile.size()];
        EXPECT_EQ(ChaosRuns[Slot].Checksum, Base.Checksum)
            << "chaos slot " << Slot << " corrupted";
        EXPECT_EQ(ChaosRuns[Slot].MemoryHash, Base.MemoryHash)
            << "chaos slot " << Slot << " corrupted";
      }
    }
  }
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
}
