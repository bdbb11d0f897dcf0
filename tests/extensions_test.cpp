//===- tests/extensions_test.cpp - Section IV-D extension tests -----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the two mechanisms the paper describes in section IV-D but
/// does not evaluate: block-granularity multi-version code and the
/// "truly adaptive" revertible exception stubs (Fig. 8, right side).
/// Both must preserve the differential-correctness invariant, and their
/// distinguishing behaviours (single check per block; revert-and-repatch
/// cycles) must be observable in the counters.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "mda/Policies.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

dbt::RunResult runDpeh(const guest::GuestImage &Image,
                       const mda::DpehOptions &Opts,
                       uint32_t Threshold = 50) {
  mda::DpehPolicy Policy(Threshold, Opts);
  dbt::Engine Engine(Image, Policy);
  return Engine.run();
}

/// A block with several mixed-alignment sites sharing one base pointer:
/// the block-granularity assumption ("addresses of MDAs usually follow
/// the same pattern") holds exactly.
guest::GuestImage sharedPatternProgram(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("shared-pattern");
  uint32_t Buf = B.dataReserve(8192, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.movrr(5, 1);
  B.andi(5, 1); // bump = i & 1
  B.movrr(3, 0);
  B.add(3, 5);
  B.stl(memIdx(3, 1, 2, 0), 1);
  B.ldl(2, memIdx(3, 1, 2, 0));
  B.stl(memIdx(3, 1, 2, 2048), 2);
  B.ldl(2, memIdx(3, 1, 2, 2048));
  B.stl(memIdx(3, 1, 2, 4096), 2);
  B.chk(2);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.halt();
  return B.build();
}

/// A program whose hot site is aligned, turns misaligned for a window,
/// then becomes aligned again — the case the revertible stub targets.
guest::GuestImage alignmentWindowProgram(uint32_t Iters, uint32_t MisFrom,
                                         uint32_t MisTo) {
  using namespace guest;
  ProgramBuilder B("alignment-window");
  uint32_t Buf = B.dataReserve(4096, 8);
  uint32_t Slot = B.dataU32(Buf);
  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  // if (i == MisFrom) ++*slot;  if (i == MisTo) --*slot;
  for (int Phase = 0; Phase != 2; ++Phase) {
    ProgramBuilder::Label Skip = B.newLabel();
    B.cmpi(6, static_cast<int32_t>(Phase == 0 ? MisFrom : MisTo));
    B.jcc(Cond::Ne, Skip);
    B.movri(3, static_cast<int32_t>(Slot));
    B.ldl(0, mem(3, 0));
    B.addi(0, Phase == 0 ? 1 : -1);
    B.stl(mem(3, 0), 0);
    B.bind(Skip);
  }
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x77);
  B.stl(mem(0, 0), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  B.addi(6, 1);
  B.cmpi(6, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.halt();
  return B.build();
}

} // namespace

TEST(BlockMvTest, MatchesOracleAndNeverTraps) {
  guest::GuestImage Image = sharedPatternProgram(600);
  Oracle O = interpretOracle(Image);
  mda::DpehOptions Opts;
  Opts.MultiVersion = true;
  Opts.MvBlockGranularity = true;
  dbt::RunResult R = runDpeh(Image, Opts);
  expectMatchesOracle(R, O, "dpeh+mv-block");
  EXPECT_EQ(R.Counters.get("dbt.fault_traps"), 0u);
}

TEST(BlockMvTest, CheaperThanPerInstructionChecks) {
  // Five multi-version sites in one block: block granularity pays one
  // check where per-instruction pays five.
  guest::GuestImage Image = sharedPatternProgram(3000);
  mda::DpehOptions PerInst;
  PerInst.MultiVersion = true;
  mda::DpehOptions PerBlock = PerInst;
  PerBlock.MvBlockGranularity = true;
  dbt::RunResult RInst = runDpeh(Image, PerInst);
  dbt::RunResult RBlock = runDpeh(Image, PerBlock);
  EXPECT_EQ(RInst.Checksum, RBlock.Checksum);
  EXPECT_LT(RBlock.Counters.get("host.insts"),
            RInst.Counters.get("host.insts"));
}

TEST(BlockMvTest, SafetyNetWhenPatternAssumptionFails) {
  // Two sites with *opposite* alignment patterns: the block check
  // follows the first site, so the second site misaligns on the
  // "aligned" path.  Its plain op traps and gets patched — slower, but
  // still correct.
  using namespace guest;
  ProgramBuilder B("anti-pattern");
  uint32_t Buf = B.dataReserve(8192, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.movrr(5, 1);
  B.andi(5, 1); // bump A = i & 1
  B.movrr(3, 0);
  B.add(3, 5);
  B.stl(memIdx(3, 1, 2, 0), 1); // site A: pattern i&1
  // bump B = (i & 3) == 0: aligned-dominated (so the policy picks
  // multi-version), but misaligned exactly on even iterations where the
  // block check (driven by site A) selects the plain copy.
  B.movrr(5, 1);
  B.andi(5, 3);
  B.addi(5, 3);
  B.shri(5, 2);
  B.xori(5, 1);
  B.movrr(3, 0);
  B.add(3, 5);
  B.stl(memIdx(3, 1, 2, 4096), 1); // site B: defies the shared pattern
  B.addi(1, 1);
  B.cmpi(1, 400);
  B.jcc(Cond::B, Loop);
  B.chk(1);
  B.halt();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);
  mda::DpehOptions Opts;
  Opts.MultiVersion = true;
  Opts.MvBlockGranularity = true;
  dbt::RunResult R = runDpeh(Image, Opts);
  expectMatchesOracle(R, O, "dpeh+mv-block anti-pattern");
  // The exception handler caught the assumption violation.
  EXPECT_GE(R.Counters.get("dbt.fault_traps"), 1u);
}

TEST(AdaptiveRevertTest, RevertsAfterAlignedRun) {
  // Misaligned window [300, 600) in a 3000-iteration loop: the adaptive
  // stub should revert the patch soon after iteration 600 + threshold.
  guest::GuestImage Image = alignmentWindowProgram(3000, 300, 600);
  Oracle O = interpretOracle(Image);
  mda::DpehOptions Opts;
  Opts.AdaptiveRevert = true;
  Opts.RevertThreshold = 64;
  dbt::RunResult R = runDpeh(Image, Opts);
  expectMatchesOracle(R, O, "dpeh+adaptive");
  EXPECT_GE(R.Counters.get("dbt.reverts"), 1u);
  EXPECT_GE(R.Counters.get("dbt.patches"), 1u);
}

TEST(AdaptiveRevertTest, WithoutAdaptiveNoReverts) {
  guest::GuestImage Image = alignmentWindowProgram(3000, 300, 600);
  dbt::RunResult R = runDpeh(Image, mda::DpehOptions());
  EXPECT_EQ(R.Counters.get("dbt.reverts"), 0u);
}

TEST(AdaptiveRevertTest, RepatchesWhenMisalignmentReturns) {
  // Two misaligned windows: after the first revert, the second window
  // traps again and re-patches — the full adaptivity loop.
  using namespace guest;
  ProgramBuilder B("two-windows");
  uint32_t Buf = B.dataReserve(4096, 8);
  uint32_t Slot = B.dataU32(Buf);
  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  const uint32_t Edges[] = {300, 600, 1800, 2100};
  const int32_t Deltas[] = {1, -1, 1, -1};
  for (int E = 0; E != 4; ++E) {
    ProgramBuilder::Label Skip = B.newLabel();
    B.cmpi(6, static_cast<int32_t>(Edges[E]));
    B.jcc(Cond::Ne, Skip);
    B.movri(3, static_cast<int32_t>(Slot));
    B.ldl(0, mem(3, 0));
    B.addi(0, Deltas[E]);
    B.stl(mem(3, 0), 0);
    B.bind(Skip);
  }
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x99);
  B.stl(mem(0, 0), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  B.addi(6, 1);
  B.cmpi(6, 3000);
  B.jcc(Cond::B, Loop);
  B.halt();
  GuestImage Image = B.build();
  Oracle O = interpretOracle(Image);
  mda::DpehOptions Opts;
  Opts.AdaptiveRevert = true;
  Opts.RevertThreshold = 64;
  dbt::RunResult R = runDpeh(Image, Opts);
  expectMatchesOracle(R, O, "dpeh+adaptive two-windows");
  EXPECT_GE(R.Counters.get("dbt.reverts"), 1u);
  // The store and load sites trap in both windows.
  EXPECT_GE(R.Counters.get("dbt.fault_traps"), 3u);
}

TEST(AdaptiveRevertTest, StubOverheadIsVisible) {
  // On a permanently-misaligned site, the adaptive stub's bookkeeping
  // can only cost cycles relative to the plain stub (the paper's
  // conclusion that the truly adaptive method "may not be worth
  // pursuing").
  guest::GuestImage Image = alignmentWindowProgram(3000, 100, 3000);
  mda::DpehOptions Plain;
  mda::DpehOptions Adaptive;
  Adaptive.AdaptiveRevert = true;
  dbt::RunResult RPlain = runDpeh(Image, Plain);
  dbt::RunResult RAdaptive = runDpeh(Image, Adaptive);
  EXPECT_EQ(RPlain.Checksum, RAdaptive.Checksum);
  EXPECT_GT(RAdaptive.Counters.get("host.insts"),
            RPlain.Counters.get("host.insts"));
  EXPECT_EQ(RAdaptive.Counters.get("dbt.reverts"), 0u);
}

TEST(ExtensionsFuzzTest, AdaptiveAndBlockMvMatchOracle) {
  for (uint64_t Seed = 100; Seed != 120; ++Seed) {
    RandomProgram Gen(Seed);
    guest::GuestImage Image = Gen.build();
    Oracle O = interpretOracle(Image);

    mda::DpehOptions Adaptive;
    Adaptive.AdaptiveRevert = true;
    Adaptive.RevertThreshold = 8;
    dbt::RunResult RA = runDpeh(Image, Adaptive, /*Threshold=*/10);
    expectMatchesOracle(RA, O,
                        ("adaptive seed " + std::to_string(Seed)).c_str());

    mda::DpehOptions BlockMv;
    BlockMv.MultiVersion = true;
    BlockMv.MvBlockGranularity = true;
    BlockMv.RetranslateThreshold = 2;
    dbt::RunResult RB = runDpeh(Image, BlockMv, /*Threshold=*/10);
    expectMatchesOracle(RB, O,
                        ("block-mv seed " + std::to_string(Seed)).c_str());
  }
}

TEST(AdaptiveRevertTest, OutOfRangeThresholdDowngradesToPlainStub) {
  // The adaptive stub compares its counter against an 8-bit operate
  // literal, so only thresholds 1..255 are expressible.  Any other value
  // must degrade to a plain (never-reverting) stub, counted like
  // exhausted counter cells, instead of aborting or half-arming.
  guest::GuestImage Image = alignmentWindowProgram(3000, 300, 600);
  Oracle O = interpretOracle(Image);
  for (uint32_t Threshold : {0u, 256u}) {
    mda::DpehOptions Opts;
    Opts.AdaptiveRevert = true;
    Opts.RevertThreshold = Threshold;
    dbt::RunResult R = runDpeh(Image, Opts);
    std::string What = "threshold " + std::to_string(Threshold);
    expectMatchesOracle(R, O, What.c_str());
    EXPECT_EQ(R.Counters.get("dbt.reverts"), 0u) << What;
    EXPECT_GE(R.Counters.get("dbt.patches"), 1u) << What;
    EXPECT_EQ(R.Counters.get("harden.stub_downgrades"),
              R.Counters.get("dbt.patches"))
        << What;
  }
}
