//===- tests/cfg_test.cpp - CFG recovery & AOT pre-translation tests ------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-recovery contract (analysis/CfgRecovery.h) and its AOT
/// consumer (EngineConfig::Aot): provable direct edges are recovered,
/// indirect jumps and undecodable bytes become explicit frontiers
/// instead of guesses, overlapping block views survive, and — the
/// differential property — on direct-control-flow guests every block
/// the dynamic DBT discovers is statically covered (zero AOT fallback),
/// while anything beyond a frontier falls back to two-phase DBT with
/// byte-identical architectural results across {off, full, hybrid}.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "analysis/AlignmentAnalysis.h"
#include "analysis/CfgRecovery.h"
#include "guest/Assembler.h"
#include "guest/GuestMemory.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"
#include "workloads/SpecCatalog.h"
#include "workloads/SpecPrograms.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

const mda::PolicySpec DirectSpec{mda::MechanismKind::Direct, 0, false, 0,
                                 false};
const mda::PolicySpec EhSpec{mda::MechanismKind::ExceptionHandling, 50, true,
                             0, false};

/// AOT runs keep the verifier on so the new reachability invariant
/// (check 10) turns any statically-unproven installation into a typed
/// failure instead of silent divergence.
dbt::RunResult runAot(const guest::GuestImage &Image,
                      const mda::PolicySpec &Spec, dbt::AotMode Mode) {
  dbt::EngineConfig Config;
  Config.Analysis = true;
  Config.Verify = true;
  Config.Aot = Mode;
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

/// entry: call fn; movri r0; halt   fn: ret
guest::GuestImage callRetProgram(uint32_t &FnPc, uint32_t &RetSitePc) {
  guest::ProgramBuilder B("cfg.callret");
  guest::ProgramBuilder::Label LFn = B.newLabel();
  B.call(LFn);
  RetSitePc = B.codeAddress();
  B.movri(0, 7);
  B.halt();
  FnPc = B.codeAddress();
  B.bind(LFn);
  B.ret();
  return B.build();
}

/// entry: jmp main   target: movri r0, 42; halt   main: movri r1,
/// &target; jmpr r1 — the target is reachable only through the
/// indirect jump, i.e. only through a flagged frontier.
guest::GuestImage indirectProgram(uint32_t &TargetPc, uint32_t &JmprBlockPc) {
  guest::ProgramBuilder B("cfg.indirect");
  guest::ProgramBuilder::Label LMain = B.newLabel();
  B.jmp(LMain);
  TargetPc = B.codeAddress();
  B.movri(0, 42);
  B.halt();
  JmprBlockPc = B.codeAddress();
  B.bind(LMain);
  B.movri(1, static_cast<int32_t>(TargetPc));
  B.jmpr(1);
  return B.build();
}

/// Two distinct provable paths (a Jcc arm and a Jmp) into the same
/// garbage byte — recovery must record exactly one frontier for it.
guest::GuestImage undecodableProgram(uint32_t &BadPc) {
  guest::ProgramBuilder B("cfg.undecodable");
  guest::ProgramBuilder::Label LBad = B.newLabel();
  B.movri(6, 1);
  B.cmpi(6, 0);
  B.jcc(guest::Cond::Eq, LBad);
  B.jmp(LBad);
  BadPc = B.codeAddress();
  B.bind(LBad);
  B.halt(); // placeholder; the test overwrites it with a bad byte
  return B.build();
}

/// entry: cmp/jcc to whole-block head, else jmp into its middle — the
/// same bytes are covered by two overlapping recovered blocks, exactly
/// like the dynamic discoverBlock view.
guest::GuestImage overlapProgram(uint32_t &WholePc, uint32_t &MidPc) {
  guest::ProgramBuilder B("cfg.overlap");
  guest::ProgramBuilder::Label LWhole = B.newLabel();
  guest::ProgramBuilder::Label LMid = B.newLabel();
  B.movri(6, 1);
  B.cmpi(6, 0);
  B.jcc(guest::Cond::Eq, LWhole);
  B.jmp(LMid);
  WholePc = B.codeAddress();
  B.bind(LWhole);
  B.movri(0, 1);
  MidPc = B.codeAddress();
  B.bind(LMid);
  B.addi(0, 2);
  B.halt();
  return B.build();
}

} // namespace

TEST(CfgRecoveryTest, DirectEdgesAndCallFallthrough) {
  uint32_t FnPc = 0, RetSitePc = 0;
  guest::GuestImage Image = callRetProgram(FnPc, RetSitePc);
  analysis::CfgResult Cfg = analysis::recoverCfg(Image);

  ASSERT_TRUE(Cfg.Frontier.empty());
  ASSERT_EQ(Cfg.Blocks.size(), 3u); // entry, return site, callee
  ASSERT_TRUE(Cfg.contains(Image.Entry));
  ASSERT_TRUE(Cfg.contains(RetSitePc));
  ASSERT_TRUE(Cfg.contains(FnPc));

  const analysis::CfgBlock &Entry = Cfg.Blocks.at(Image.Entry);
  EXPECT_EQ(Entry.Terminator, guest::Opcode::Call);
  EXPECT_EQ(Entry.Succs, (std::vector<uint32_t>{RetSitePc, FnPc}));
  EXPECT_FALSE(Entry.EndsAtFrontier);
  EXPECT_EQ(Entry.Provenance, analysis::BlockProvenance::Static);

  // Ret contributes no successors: its targets are exactly the call
  // fall-throughs already proven.
  EXPECT_EQ(Cfg.Blocks.at(FnPc).Terminator, guest::Opcode::Ret);
  EXPECT_TRUE(Cfg.Blocks.at(FnPc).Succs.empty());
  EXPECT_EQ(Cfg.Blocks.at(RetSitePc).Terminator, guest::Opcode::Halt);
  EXPECT_EQ(Cfg.NumEdges, 2u);
}

TEST(CfgRecoveryTest, IndirectJumpIsAFrontierNotAGuess) {
  uint32_t TargetPc = 0, JmprBlockPc = 0;
  guest::GuestImage Image = indirectProgram(TargetPc, JmprBlockPc);
  analysis::CfgResult Cfg = analysis::recoverCfg(Image);

  // The JmpR block itself is proven; its successor set is not.
  ASSERT_TRUE(Cfg.contains(JmprBlockPc));
  const analysis::CfgBlock &B = Cfg.Blocks.at(JmprBlockPc);
  EXPECT_EQ(B.Terminator, guest::Opcode::JmpR);
  EXPECT_TRUE(B.EndsAtFrontier);
  EXPECT_TRUE(B.Succs.empty());

  // No heuristics: the dynamic-only target stays out of the set and
  // the frontier record points at the indirect jump.
  EXPECT_FALSE(Cfg.contains(TargetPc));
  ASSERT_EQ(Cfg.Frontier.size(), 1u);
  EXPECT_EQ(Cfg.Frontier[0].Kind, analysis::FrontierKind::IndirectJump);
  EXPECT_EQ(Cfg.Frontier[0].BlockPc, JmprBlockPc);
  EXPECT_STREQ(analysis::frontierKindName(Cfg.Frontier[0].Kind),
               "indirect-jump");
}

TEST(CfgRecoveryTest, UndecodableBytesFlaggedOncePerRegion) {
  uint32_t BadPc = 0;
  guest::GuestImage Image = undecodableProgram(BadPc);
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  Mem.store(BadPc, 1, 0xFF); // no GX86 opcode decodes from 0xFF

  analysis::CfgResult Cfg = analysis::recoverCfg(Mem, Image.Entry);

  // Two provable paths (Jcc arm and Jmp) reach the same bad byte, but
  // the walk is recorded — and erased from Blocks — exactly once.
  ASSERT_EQ(Cfg.Frontier.size(), 1u);
  EXPECT_EQ(Cfg.Frontier[0].Kind, analysis::FrontierKind::Undecodable);
  EXPECT_EQ(Cfg.Frontier[0].Pc, BadPc);
  EXPECT_EQ(Cfg.Frontier[0].BlockPc, BadPc);
  EXPECT_FALSE(Cfg.contains(BadPc));
  // The decodable prefix stays proven.
  EXPECT_TRUE(Cfg.contains(Image.Entry));
}

TEST(CfgRecoveryTest, RunawayStraightLineIsAFrontier) {
  guest::ProgramBuilder B("cfg.runaway");
  for (int I = 0; I != 16; ++I)
    B.nop();
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);

  analysis::CfgResult Cfg =
      analysis::recoverCfg(Mem, Image.Entry, /*MaxBlockInsts=*/4);
  ASSERT_EQ(Cfg.Frontier.size(), 1u);
  EXPECT_EQ(Cfg.Frontier[0].Kind, analysis::FrontierKind::Runaway);
  EXPECT_TRUE(Cfg.Blocks.empty());

  // The default bound mirrors discoverBlock's and accepts the block.
  EXPECT_TRUE(analysis::recoverCfg(Mem, Image.Entry).Frontier.empty());
}

TEST(CfgRecoveryTest, OverlappingBlockViewsBothRecovered) {
  uint32_t WholePc = 0, MidPc = 0;
  guest::GuestImage Image = overlapProgram(WholePc, MidPc);
  analysis::CfgResult Cfg = analysis::recoverCfg(Image);

  ASSERT_TRUE(Cfg.Frontier.empty());
  ASSERT_TRUE(Cfg.contains(WholePc));
  ASSERT_TRUE(Cfg.contains(MidPc));
  const analysis::CfgBlock &Whole = Cfg.Blocks.at(WholePc);
  const analysis::CfgBlock &Mid = Cfg.Blocks.at(MidPc);
  // The mid-entry block starts strictly inside the whole-block view
  // and both share the terminating bytes.
  EXPECT_GT(MidPc, WholePc);
  EXPECT_LT(MidPc, Whole.EndPc);
  EXPECT_EQ(Whole.EndPc, Mid.EndPc);
  EXPECT_EQ(Whole.NumInsts, Mid.NumInsts + 1);

  // coverageRanges merges the overlap into disjoint sorted ranges.
  auto Ranges = Cfg.coverageRanges();
  ASSERT_FALSE(Ranges.empty());
  for (size_t I = 0; I != Ranges.size(); ++I) {
    EXPECT_LT(Ranges[I].first, Ranges[I].second);
    if (I) {
      EXPECT_GT(Ranges[I].first, Ranges[I - 1].second);
    }
  }
}

TEST(CfgRecoveryTest, AnnotateVerdictsTalliesEverySizedSite) {
  guest::GuestImage Image = misalignedSumProgram(64);
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  analysis::CfgResult Cfg = analysis::recoverCfg(Mem, Image.Entry);
  analysis::AnalysisResult Ana =
      analysis::analyzeAlignment(Mem, Image.Entry, Image.StackTop);

  uint64_t Classified = analysis::annotateVerdicts(Cfg, Mem, Ana);
  EXPECT_GT(Classified, 0u);
  uint64_t Tallied = 0;
  for (const auto &KV : Cfg.Blocks)
    Tallied += KV.second.SitesAligned + KV.second.SitesMisaligned +
               KV.second.SitesUnknown;
  EXPECT_EQ(Tallied, Classified);
}

TEST(CfgTest, RandomProgramsRecoverWithEmptyFrontier) {
  // RandomProgram emits direct control flow only, so static recovery
  // must be total: no frontier, and the dynamic DBT can never discover
  // a head outside the recovered set (asserted end-to-end below).
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    guest::GuestImage Image = RandomProgram(Seed).build();
    analysis::CfgResult Cfg = analysis::recoverCfg(Image);
    EXPECT_TRUE(Cfg.Frontier.empty()) << "seed " << Seed;
    EXPECT_TRUE(Cfg.contains(Image.Entry)) << "seed " << Seed;
  }
}

TEST(CfgTest, DifferentialNoDynamicHeadOutsideRecoveredSet) {
  // The differential property: on a hostile-free direct-flow guest,
  // every block head the engine ever dispatches is statically covered
  // — zero AOT fallback, 100% coverage — and hybrid AOT stays
  // byte-identical to the interpreter oracle with zero verifier issues
  // (including the new AOT reachability invariant).
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    guest::GuestImage Image = RandomProgram(Seed).build();
    Oracle O = interpretOracle(Image);
    dbt::RunResult R = runAot(Image, DirectSpec, dbt::AotMode::Hybrid);
    expectMatchesOracle(R, O, "random hybrid");
    EXPECT_EQ(R.Counters.get("verify.issues"), 0u) << "seed " << Seed;
    EXPECT_EQ(R.Counters.get("aot.fallback_blocks"), 0u) << "seed " << Seed;
    EXPECT_EQ(R.Counters.get("aot.coverage_pct"), 100u) << "seed " << Seed;
    EXPECT_GT(R.Counters.get("aot.blocks"), 0u) << "seed " << Seed;
  }
}

TEST(CfgTest, AotModesArchitecturallyIdentical) {
  const dbt::AotMode Modes[] = {dbt::AotMode::Off, dbt::AotMode::Full,
                                dbt::AotMode::Hybrid};
  for (const mda::PolicySpec &Spec : {DirectSpec, EhSpec}) {
    guest::GuestImage Image = misalignedSumProgram(200);
    Oracle O = interpretOracle(Image);
    for (dbt::AotMode Mode : Modes) {
      dbt::RunResult R = runAot(Image, Spec, Mode);
      expectMatchesOracle(R, O, dbt::aotModeName(Mode));
      EXPECT_EQ(R.Counters.get("verify.issues"), 0u)
          << dbt::aotModeName(Mode);
      if (Mode == dbt::AotMode::Full) {
        // Full mode installs the whole recovered set before the first
        // guest instruction and pays the startup bill for it.
        EXPECT_GT(R.Counters.get("aot.installed"), 0u);
        EXPECT_GT(R.Counters.get("aot.startup_cycles"), 0u);
      }
    }
  }
}

TEST(CfgTest, SpecRowModeledCostIsPinned) {
  // Exact modeled cost of one bench/ablation_aot cell (164.gzip, REF
  // input at 60K refs, EH) with AOT off and hybrid.  Startup
  // recovery, pre-translation and lazy install cycles all land in
  // Cycles, so re-pricing any of them fails here.
  struct Cell {
    dbt::AotMode Mode;
    uint64_t Cycles, HostInsts;
  };
  const Cell Cells[] = {
      {dbt::AotMode::Off, 496627, 244269},
      {dbt::AotMode::Hybrid, 468302, 258988},
  };
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 60000;
  guest::GuestImage Image = workloads::buildBenchmark(
      *workloads::findBenchmark("164.gzip"), workloads::InputKind::Ref,
      Scale);
  for (const Cell &C : Cells) {
    dbt::RunResult R = runAot(Image, mda::PolicySpec(), C.Mode);
    const char *Name = dbt::aotModeName(C.Mode);
    ASSERT_TRUE(R.completed()) << Name;
    EXPECT_EQ(R.Cycles, C.Cycles) << Name;
    EXPECT_EQ(R.Counters.get("host.insts"), C.HostInsts) << Name;
  }
}

TEST(CfgTest, IndirectTargetFallsBackToDynamicDbt) {
  uint32_t TargetPc = 0, JmprBlockPc = 0;
  guest::GuestImage Image = indirectProgram(TargetPc, JmprBlockPc);
  Oracle O = interpretOracle(Image);
  for (dbt::AotMode Mode : {dbt::AotMode::Full, dbt::AotMode::Hybrid}) {
    dbt::RunResult R = runAot(Image, DirectSpec, Mode);
    expectMatchesOracle(R, O, dbt::aotModeName(Mode));
    EXPECT_EQ(R.Counters.get("verify.issues"), 0u);
    // The jmpr-only target is a dynamic discovery, attributable to the
    // one flagged indirect-jump frontier.
    EXPECT_GE(R.Counters.get("aot.fallback_blocks"), 1u);
    EXPECT_GE(R.Counters.get("aot.frontier_sites"), 1u);
  }
}

TEST(CfgTest, SelfModifyingGuestsStaleAotUnitsAndStayIdentical) {
  // A store into a pre-translated unit's guest bytes must mark the
  // unit non-static (never installed again from the stale payload)
  // while the run stays byte-identical and verifier-clean — across
  // the whole hostile catalog, in both AOT modes.
  uint64_t TotalStaled = 0;
  for (const workloads::HostileProgram &P : workloads::hostileCatalog()) {
    Oracle O = interpretOracle(P.Image);
    for (dbt::AotMode Mode : {dbt::AotMode::Full, dbt::AotMode::Hybrid}) {
      dbt::RunResult R = runAot(P.Image, DirectSpec, Mode);
      expectMatchesOracle(R, O, P.Name.c_str());
      EXPECT_EQ(R.Counters.get("verify.issues"), 0u)
          << P.Name << " " << dbt::aotModeName(Mode);
      TotalStaled += R.Counters.get("aot.stale_dropped");
    }
  }
  EXPECT_GT(TotalStaled, 0u);
}
