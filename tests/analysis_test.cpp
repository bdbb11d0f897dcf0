//===- tests/analysis_test.cpp - Alignment analysis + verifier tests ------===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the congruence lattice (join/transfer corners and the
/// verdict rule), whole-program analysis verdicts on hand-built guest
/// programs, a differential property test over the random-program
/// corpus (no provably-aligned op ever misaligns at runtime, no
/// provably-misaligned op ever runs aligned), engine equivalence with
/// the analysis enabled, and structural checks of the host code-cache
/// verifier.
///
//===----------------------------------------------------------------------===//

#include "analysis/AlignmentAnalysis.h"
#include "analysis/HostVerifier.h"
#include "dbt/Engine.h"
#include "guest/Assembler.h"
#include "guest/Interpreter.h"
#include "guest/MdaCensus.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"
#include "mda/PolicyFactory.h"
#include "support/RNG.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace mdabt;
using analysis::AbsVal;
using analysis::AlignVerdict;

namespace {

AbsVal exact(uint32_t V) { return AbsVal::exact(V); }
AbsVal cong(uint32_t M, uint32_t R) { return AbsVal::congruent(M, R); }

//===----------------------------------------------------------------------===//
// Lattice: join
//===----------------------------------------------------------------------===//

TEST(AlignLattice, JoinIdentities) {
  EXPECT_EQ(analysis::join(AbsVal::bottom(), exact(12)), exact(12));
  EXPECT_EQ(analysis::join(exact(12), AbsVal::bottom()), exact(12));
  EXPECT_EQ(analysis::join(AbsVal::top(), cong(8, 3)), AbsVal::top());
  EXPECT_EQ(analysis::join(exact(12), exact(12)), exact(12));
}

TEST(AlignLattice, JoinExactsDegradeToCongruence) {
  // Agree mod 8.
  EXPECT_EQ(analysis::join(exact(8), exact(16)), cong(8, 0));
  EXPECT_EQ(analysis::join(exact(4), exact(12)), cong(8, 4));
  // Agree only mod 4 / mod 2.
  EXPECT_EQ(analysis::join(exact(4), exact(8)), cong(4, 0));
  EXPECT_EQ(analysis::join(exact(2), exact(4)), cong(2, 0));
  // No common residue at all.
  EXPECT_EQ(analysis::join(exact(1), exact(2)), AbsVal::top());
}

TEST(AlignLattice, JoinCongruences) {
  // Coarser modulus wins.
  EXPECT_EQ(analysis::join(cong(8, 0), cong(4, 0)), cong(4, 0));
  // Same modulus, different residue: drop to where they agree.
  EXPECT_EQ(analysis::join(cong(8, 1), cong(8, 5)), cong(4, 1));
  EXPECT_EQ(analysis::join(cong(2, 0), cong(2, 1)), AbsVal::top());
  // Exact against congruence.
  EXPECT_EQ(analysis::join(exact(9), cong(8, 1)), cong(8, 1));
}

//===----------------------------------------------------------------------===//
// Lattice: transfer functions
//===----------------------------------------------------------------------===//

TEST(AlignLattice, AddSub) {
  EXPECT_EQ(analysis::absAdd(exact(3), exact(5)), exact(8));
  // 32-bit wrap preserves both the fold and the congruence (8 | 2^32).
  EXPECT_EQ(analysis::absAdd(exact(0xffffffffu), exact(1)), exact(0));
  EXPECT_EQ(analysis::absAdd(cong(8, 1), exact(3)), cong(8, 4));
  EXPECT_EQ(analysis::absAdd(cong(4, 1), cong(8, 2)), cong(4, 3));
  EXPECT_EQ(analysis::absAdd(AbsVal::top(), exact(1)), AbsVal::top());
  EXPECT_EQ(analysis::absSub(cong(8, 1), exact(2)), cong(8, 7));
  EXPECT_EQ(analysis::absSub(exact(5), exact(7)), exact(0xfffffffeu));
}

TEST(AlignLattice, Mul) {
  EXPECT_EQ(analysis::absMul(exact(6), exact(7)), exact(42));
  // Multiplying by 4 sharpens a mod-2 fact to mod-8.
  EXPECT_EQ(analysis::absMul(cong(2, 1), exact(4)), cong(8, 4));
  // Any value times 8 is 0 mod 8.
  EXPECT_EQ(analysis::absMul(AbsVal::top(), exact(8)), cong(8, 0));
  EXPECT_EQ(analysis::absMul(AbsVal::top(), exact(0)), exact(0));
  EXPECT_EQ(analysis::absMul(AbsVal::top(), AbsVal::top()), AbsVal::top());
}

TEST(AlignLattice, AndOrXor) {
  EXPECT_EQ(analysis::absAnd(exact(0xff), exact(0x0f)), exact(0x0f));
  // Masking the low bits to zero aligns any value.
  EXPECT_EQ(analysis::absAnd(AbsVal::top(), exact(0xfffffff8u)),
            cong(8, 0));
  EXPECT_EQ(analysis::absAnd(AbsVal::top(), cong(4, 0)), cong(4, 0));
  EXPECT_EQ(analysis::absOr(cong(8, 0), cong(8, 1)), cong(8, 1));
  EXPECT_EQ(analysis::absXor(cong(4, 1), cong(8, 2)), cong(4, 3));
  EXPECT_EQ(analysis::absXor(AbsVal::top(), exact(1)), AbsVal::top());
}

TEST(AlignLattice, Shifts) {
  EXPECT_EQ(analysis::absShl(exact(3), exact(2)), exact(12));
  // Shifting anything left by >= 3 makes it 0 mod 8.
  EXPECT_EQ(analysis::absShl(AbsVal::top(), exact(3)), cong(8, 0));
  EXPECT_EQ(analysis::absShl(cong(2, 1), exact(1)), cong(4, 2));
  // Right shifts destroy low-bit knowledge.
  EXPECT_EQ(analysis::absShr(AbsVal::top(), exact(1)), AbsVal::top());
  EXPECT_EQ(analysis::absShr(exact(8), exact(2)), exact(2));
  EXPECT_EQ(analysis::absSar(exact(0x80000000u), exact(31)),
            exact(0xffffffffu));
}

TEST(AlignLattice, VerdictRule) {
  EXPECT_EQ(analysis::verdictOf(exact(4), 4), AlignVerdict::Aligned);
  EXPECT_EQ(analysis::verdictOf(exact(6), 4), AlignVerdict::Misaligned);
  EXPECT_EQ(analysis::verdictOf(cong(8, 0), 8), AlignVerdict::Aligned);
  EXPECT_EQ(analysis::verdictOf(cong(4, 2), 4), AlignVerdict::Misaligned);
  // Mod 2 with residue 1 cannot be 4-aligned (4-aligned => even).
  EXPECT_EQ(analysis::verdictOf(cong(2, 1), 4), AlignVerdict::Misaligned);
  // Mod 2 residue 0 says nothing about 4-alignment.
  EXPECT_EQ(analysis::verdictOf(cong(2, 0), 4), AlignVerdict::Unknown);
  EXPECT_EQ(analysis::verdictOf(AbsVal::top(), 4), AlignVerdict::Unknown);
  // Byte accesses never misalign; report Unknown, never a proof.
  EXPECT_EQ(analysis::verdictOf(exact(5), 1), AlignVerdict::Unknown);
}

//===----------------------------------------------------------------------===//
// Whole-program verdicts
//===----------------------------------------------------------------------===//

/// The only site of \p Ana, asserted unique.
const analysis::SiteInfo &onlySite(const analysis::AnalysisResult &Ana) {
  EXPECT_EQ(Ana.Sites.size(), 1u);
  return Ana.Sites.begin()->second;
}

TEST(AlignAnalysis, AlignedStrideLoopIsProvablyAligned) {
  guest::ProgramBuilder B("aligned-loop");
  uint32_t Buf = B.dataReserve(256, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 0);
  guest::ProgramBuilder::Label Top = B.here();
  B.ldl(2, guest::memIdx(0, 1, 0, 0));
  B.addi(1, 4);
  B.cmpi(1, 64);
  B.jcc(guest::Cond::Lt, Top);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Aligned);
  EXPECT_EQ(S.Size, 4u);
  EXPECT_EQ(Ana.NumAligned, 1u);
}

TEST(AlignAnalysis, ConstantOffBaseIsProvablyMisaligned) {
  guest::ProgramBuilder B("mis");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf + 1));
  B.movri(2, 7);
  B.stl(guest::mem(0, 0), 2);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Misaligned);
  EXPECT_TRUE(S.IsStore);
  EXPECT_EQ(Ana.NumMisaligned, 1u);
}

TEST(AlignAnalysis, RuntimeLoadedBaseIsUnknown) {
  guest::ProgramBuilder B("slot");
  uint32_t Buf = B.dataReserve(64, 8);
  uint32_t Slot = B.dataU32(Buf + 1);
  B.movri(0, static_cast<int32_t>(Slot));
  B.ldl(1, guest::mem(0, 0)); // provably aligned (the slot itself)
  B.ldl(2, guest::mem(1, 0)); // through the loaded value: unknown
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  ASSERT_EQ(Ana.Sites.size(), 2u);
  EXPECT_EQ(Ana.NumAligned, 1u);
  EXPECT_EQ(Ana.NumUnknown, 1u);
}

TEST(AlignAnalysis, CallReturnFlowsThroughFunctions) {
  guest::ProgramBuilder B("callret");
  uint32_t Buf = B.dataReserve(64, 8);
  guest::ProgramBuilder::Label F = B.newLabel();
  B.movri(0, static_cast<int32_t>(Buf));
  B.call(F);
  B.halt();
  B.bind(F);
  B.stl(guest::mem(0, 4), 0);
  B.ret();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_FALSE(Ana.Poisoned);
  const analysis::SiteInfo &S = onlySite(Ana);
  EXPECT_EQ(S.Verdict, AlignVerdict::Aligned);
  EXPECT_GE(Ana.Blocks, 2u);
}

TEST(AlignAnalysis, NonConstantIndirectJumpPoisons) {
  guest::ProgramBuilder B("poison");
  uint32_t Slot = B.dataU32(0x1000);
  B.movri(0, static_cast<int32_t>(Slot));
  B.ldl(1, guest::mem(0, 0));
  B.jmpr(1);
  B.halt();

  analysis::AnalysisResult Ana = analysis::analyzeAlignment(B.build());
  EXPECT_TRUE(Ana.Poisoned);
  // A poisoned result must claim nothing.
  EXPECT_TRUE(Ana.Sites.empty());
  EXPECT_EQ(Ana.NumAligned, 0u);
  EXPECT_EQ(Ana.NumMisaligned, 0u);
}

//===----------------------------------------------------------------------===//
// Differential property: verdicts vs observed execution
//===----------------------------------------------------------------------===//

/// Records, per static instruction, how often it ran aligned and
/// misaligned — the ground truth the verdicts are checked against.
struct AlignRecorder : guest::InterpObserver {
  struct Obs {
    uint64_t Aligned = 0;
    uint64_t Mis = 0;
  };
  std::unordered_map<uint32_t, Obs> Sites;
  void onMemAccess(uint32_t InstPc, uint32_t Addr, unsigned Size,
                   bool /*IsStore*/) override {
    Obs &O = Sites[InstPc];
    if (guest::isMisaligned(Addr, Size))
      ++O.Mis;
    else
      ++O.Aligned;
  }
};

TEST(AlignAnalysisProperty, VerdictsNeverContradictExecution) {
  for (uint64_t Seed = 1; Seed <= 80; ++Seed) {
    guest::GuestImage Image = testutil::RandomProgram(Seed).build();
    analysis::AnalysisResult Ana = analysis::analyzeAlignment(Image);

    guest::GuestMemory Mem;
    Mem.loadImage(Image);
    guest::GuestCPU Cpu;
    Cpu.reset(Image);
    AlignRecorder Rec;
    guest::Interpreter Interp(Mem);
    Interp.setObserver(&Rec);
    Interp.run(Cpu);

    for (const auto &KV : Rec.Sites) {
      auto It = Ana.Sites.find(KV.first);
      if (It == Ana.Sites.end())
        continue;
      if (It->second.Verdict == AlignVerdict::Aligned) {
        EXPECT_EQ(KV.second.Mis, 0u)
            << "seed " << Seed << " pc 0x" << std::hex << KV.first
            << ": provably-aligned site misaligned at runtime";
      }
      if (It->second.Verdict == AlignVerdict::Misaligned) {
        EXPECT_EQ(KV.second.Aligned, 0u)
            << "seed " << Seed << " pc 0x" << std::hex << KV.first
            << ": provably-misaligned site ran aligned";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine integration: analysis on vs off
//===----------------------------------------------------------------------===//

TEST(AlignAnalysisEngine, AnalysisPreservesArchitecturalState) {
  using mda::MechanismKind;
  const mda::PolicySpec Specs[] = {
      {MechanismKind::ExceptionHandling, 50, false, 0, false},
      {MechanismKind::Dpeh, 50, false, 0, false},
  };
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    guest::GuestImage Image = testutil::RandomProgram(Seed).build();
    for (const mda::PolicySpec &Spec : Specs) {
      dbt::RunResult Off, On;
      {
        std::unique_ptr<dbt::MdaPolicy> P = mda::makePolicy(Spec, &Image);
        Off = dbt::Engine(Image, *P).run();
      }
      {
        std::unique_ptr<dbt::MdaPolicy> P = mda::makePolicy(Spec, &Image);
        dbt::EngineConfig Config;
        Config.Analysis = true;
        Config.Verify = true; // and the verifier must stay quiet
        On = dbt::Engine(Image, *P, Config).run();
      }
      ASSERT_TRUE(Off.completed());
      ASSERT_TRUE(On.completed()) << dbt::runErrorName(On.Error);
      EXPECT_EQ(On.Checksum, Off.Checksum) << "seed " << Seed;
      EXPECT_EQ(On.MemoryHash, Off.MemoryHash) << "seed " << Seed;
      // Soundness implies the analysis can only remove trap exposure.
      EXPECT_LE(On.Counters.get("dbt.fault_traps"),
                Off.Counters.get("dbt.fault_traps"));
      EXPECT_GT(On.Counters.get("verify.passes"), 0u);
      EXPECT_EQ(On.Counters.get("verify.issues"), 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Host code-cache verifier
//===----------------------------------------------------------------------===//

TEST(HostVerifier, CleanRegionPasses) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.opl(host::HostOp::Addl, 1, 4, 2);
  Asm.mov(2, 3);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  EXPECT_TRUE(R.ok()) << (R.Issues.empty()
                              ? ""
                              : analysis::verifyIssueToString(R.Issues[0]));
  EXPECT_GT(R.WordsChecked, 0u);
}

TEST(HostVerifier, BranchOutsideLiveRegionsFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.brTo(100); // way past the end of the arena
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::BranchTargetBad);
}

TEST(HostVerifier, TornWordInLiveRegionFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.opl(host::HostOp::Addl, 1, 4, 2);
  uint32_t Victim = Asm.mov(2, 3);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();
  Code.patch(Victim, 12u << 26); // torn write: invalid opcode

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::Undecodable);
  EXPECT_EQ(R.Issues[0].Word, Victim);
}

TEST(HostVerifier, CorruptedMdaSequenceFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t SeqStart = Code.size();
  host::emitMdaLoad(Asm, 4, /*Ra=*/5, /*Rb=*/6, /*Disp=*/2);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();
  // Clobber the middle of the sequence with a harmless-looking mov:
  // every word still decodes, but the shape is no longer the canonical
  // unaligned-load expansion.
  Code.patch(SeqStart + 2, Code.word(Exit - 1));

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {Exit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  bool SawMda = false;
  for (const analysis::VerifyIssue &I : R.Issues)
    SawMda |= I.Kind == analysis::VerifyIssueKind::MdaSequenceMalformed;
  EXPECT_TRUE(SawMda);
}

TEST(HostVerifier, BogusExitSiteFlagged) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t NotAnExit = Asm.mov(2, 3);
  Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  analysis::VerifierInput In;
  In.Blocks.push_back({0, Code.size(), {}, {}, {NotAnExit}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::ExitSiteBad);
}

//===----------------------------------------------------------------------===//
// Host code-cache verifier: out-of-range input fails closed
//===----------------------------------------------------------------------===//

TEST(HostVerifier, SitesPastTheArenaEndFailClosed) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  Asm.opl(host::HostOp::Addl, 1, 4, 2);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();
  const uint32_t N = Code.size();

  // A region, a patch, an exit and an IC way that all reach past the
  // end of the arena: bookkeeping gone wrong.  Each is reported as its
  // site's issue kind, with the arena size as aux, and nothing is read.
  analysis::VerifierInput In;
  In.Blocks.push_back({0,
                       N + 8,
                       {},
                       {{N + 3, /*Reverted=*/false}},
                       {Exit, N + 5},
                       {{N + 1, /*Filled=*/false, 0, 0}}});
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_EQ(R.Issues.size(), 4u);
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::Undecodable);
  EXPECT_EQ(R.Issues[0].Word, N);
  EXPECT_EQ(R.Issues[0].Aux, N);
  EXPECT_EQ(R.Issues[1].Kind, analysis::VerifyIssueKind::PatchSiteBad);
  EXPECT_EQ(R.Issues[1].Word, N + 3);
  EXPECT_EQ(R.Issues[2].Kind, analysis::VerifyIssueKind::ExitSiteBad);
  EXPECT_EQ(R.Issues[2].Word, N + 5);
  EXPECT_EQ(R.Issues[3].Kind, analysis::VerifyIssueKind::IcWayBad);
  EXPECT_EQ(R.Issues[3].Word, N + 1);
  EXPECT_EQ(R.WordsChecked, N);
  EXPECT_EQ(R.RegionsChecked, 1u);
}

TEST(HostVerifier, StaleGuestCodeReportsLowestByte) {
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t Exit = Asm.emit(host::srvInst(host::SrvFunc::Exit));
  Asm.finish();

  std::unordered_map<uint32_t, uint64_t> Dirty;
  for (uint32_t Byte : {0x1040u, 0x1013u, 0x1021u, 0x1010u})
    Dirty[Byte] = 7;
  Dirty[0x100c] = 2; // older than the translation: fine
  analysis::VerifierInput In;
  analysis::VerifierBlock B{0, Code.size(), {}, {}, {Exit}};
  B.GuestRanges = {{0x1020, 0x1030}, {0x1000, 0x1018}};
  B.BornEpoch = 5;
  In.Blocks.push_back(B);
  In.GuestDirtyEpoch = &Dirty;
  analysis::VerifyReport R = analysis::verifyCodeSpace(Code, In);
  ASSERT_EQ(R.Issues.size(), 1u);
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::StaleGuestCode);
  EXPECT_EQ(R.Issues[0].Aux, 0x1010u);
}

//===----------------------------------------------------------------------===//
// Host code-cache verifier: a remembering verifier reports exactly what a
// from-scratch sweep reports
//===----------------------------------------------------------------------===//

/// A miniature code cache kept the way the engine keeps its own: blocks
/// with a fault site, an inline MDA sequence, a fused core, an inline-
/// cache way and a chainable exit, each followed by an MDA stub.  Steps
/// mutate it the ways the engine does (install, patch, chain, invalidate,
/// quarantine, fill an IC way, flush) and the ways fault injection and
/// engine bugs do (torn and dropped patches, stray writes, a chain left
/// pointing at a dead block).
class CacheModel {
public:
  struct Block {
    uint32_t Entry = 0, End = 0;
    uint32_t Fault = 0, Exit = 0, Way = 0;
    /// A conditional branch that skips one word (its home target) or,
    /// linked, jumps into another block: covered by check 3 alone.
    uint32_t Side = 0, SideHome = 0;
    analysis::VerifierRegion Stub, Fused, Guest;
    std::vector<uint32_t> FusedWords;
    uint64_t Born = 0;
    bool Valid = true, Patched = false, WayFilled = false;
    uint32_t WayTarget = 0, WayTag = 0;
  };

  host::CodeSpace Code;
  std::vector<Block> Blocks;
  std::unordered_set<uint32_t> Exempt;
  std::unordered_map<uint32_t, uint64_t> Dirty;
  uint64_t Epoch = 0;
  /// Stray writes not yet undone: word -> original value.
  std::map<uint32_t, uint32_t> Strays;

  static uint32_t brWord(uint32_t From, uint32_t To) {
    return host::encodeHost(host::brInst(
        host::HostOp::Br, host::RegZero,
        static_cast<int32_t>(To) - static_cast<int32_t>(From + 1)));
  }

  static std::vector<uint32_t> wayWords(uint32_t Begin, uint32_t Target,
                                        uint32_t Tag) {
    using namespace host;
    int32_t Lo = static_cast<int16_t>(Tag & 0xffff);
    int32_t Hi =
        static_cast<int32_t>(Tag - static_cast<uint32_t>(Lo)) >> 16;
    return {encodeHost(memInst(HostOp::Ldah, RegScratch1, Hi, RegZero)),
            encodeHost(memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1)),
            encodeHost(
                opInst(HostOp::Zextl, RegZero, RegScratch1, RegScratch1)),
            encodeHost(
                opInst(HostOp::Cmpeq, RegExitPc, RegScratch1, RegScratch2)),
            encodeHost(brInst(HostOp::Beq, RegScratch2, 1)),
            brWord(Begin + 5, Target)};
  }

  void install(mdabt::RNG &Rng) {
    using namespace host;
    Block B;
    HostAssembler Asm(Code);
    B.Entry = Asm.pos();
    Asm.opl(HostOp::Addl, 1, static_cast<uint8_t>(Rng.below(200)), 2);
    B.Fused.Begin = Asm.pos();
    Asm.mov(2, 7);
    B.Fault = Asm.mem(HostOp::Ldl, 3, 4, 2);
    B.Fused.End = Asm.pos();
    emitMdaLoad(Asm, Rng.chance(0.5) ? 4 : 8, 5, 6,
                static_cast<int32_t>(Rng.below(64)));
    HostAssembler::Label Skip = Asm.newLabel();
    B.Side = Asm.beq(1, Skip);
    Asm.mov(5, 6);
    Asm.bind(Skip);
    B.SideHome = Asm.pos();
    B.Way = Asm.pos();
    Asm.emit(brInst(HostOp::Br, RegZero, 5));
    for (int K = 0; K != 5; ++K)
      Asm.mov(RegZero, RegZero);
    B.Exit = Asm.emit(srvInst(SrvFunc::Exit));
    B.End = Asm.pos();
    B.Stub.Begin = Asm.pos();
    emitMdaLoad(Asm, 4, 3, 2, 4);
    Asm.brTo(B.Fault + 1);
    B.Stub.End = Asm.pos();
    Asm.finish();
    for (uint32_t W = B.Fused.Begin; W != B.Fused.End; ++W)
      B.FusedWords.push_back(Code.word(W));
    uint32_t GuestPc = 0x1000 + 0x40 * static_cast<uint32_t>(Blocks.size());
    B.Guest = {GuestPc, GuestPc + 0x20};
    B.Born = Epoch;
    Blocks.push_back(std::move(B));
  }

  /// Index of a random live block, or -1.
  int pickLive(mdabt::RNG &Rng) const {
    std::vector<int> Live;
    for (size_t I = 0; I != Blocks.size(); ++I)
      if (Blocks[I].Valid)
        Live.push_back(static_cast<int>(I));
    if (Live.empty())
      return -1;
    return Live[Rng.below(Live.size())];
  }

  void patchFault(Block &B) {
    Code.patch(B.Fault, brWord(B.Fault, B.Stub.Begin));
    B.Patched = true;
  }

  /// A patch the injector drops or tears: the bookkeeping records it
  /// as done either way.
  void faultyPatch(Block &B, bool Torn, uint32_t Flip) {
    Code.setPatchHook([Torn, Flip](uint32_t, uint32_t &Word) {
      Word ^= Flip;
      return Torn;
    });
    patchFault(B);
    Code.setPatchHook(nullptr);
  }

  static uint32_t beqWord(uint32_t From, uint32_t To) {
    return host::encodeHost(host::brInst(
        host::HostOp::Beq, 1,
        static_cast<int32_t>(To) - static_cast<int32_t>(From + 1)));
  }

  void link(Block &From, const Block &To) {
    Code.patch(From.Side, beqWord(From.Side, To.Entry));
  }

  void unlink(Block &From) {
    Code.patch(From.Side, beqWord(From.Side, From.SideHome));
  }

  void chain(Block &From, const Block &To) {
    Code.patch(From.Exit, brWord(From.Exit, To.Entry));
  }

  void unchain(Block &From) {
    Code.patch(From.Exit, host::encodeHost(host::srvInst(host::SrvFunc::Exit)));
  }

  /// Exits chained to \p Target's entry.
  std::vector<int> chainedTo(const Block &Target) const {
    std::vector<int> Out;
    for (size_t I = 0; I != Blocks.size(); ++I)
      if (Code.word(Blocks[I].Exit) == brWord(Blocks[I].Exit, Target.Entry))
        Out.push_back(static_cast<int>(I));
    return Out;
  }

  /// Take \p Victim out of service.  \p Mode 0 unchains, unlinks and
  /// disables every way into it (correct), 1 quarantines the incoming
  /// exits and side branches (the engine's fallback when an unchain
  /// patch fails), 2 leaves them pointing at the dead entry (an engine
  /// bug the verifier must catch although no word changed).
  void invalidate(Block &Victim, unsigned Mode) {
    Victim.Valid = false;
    for (int I : chainedTo(Victim)) {
      if (Mode == 0)
        unchain(Blocks[I]);
      else if (Mode == 1)
        Exempt.insert(Blocks[I].Exit);
    }
    for (Block &B : Blocks) {
      if (Code.word(B.Side) != beqWord(B.Side, Victim.Entry))
        continue;
      if (Mode == 0)
        unlink(B);
      else if (Mode == 1)
        Exempt.insert(B.Side);
    }
    for (Block &B : Blocks)
      if (B.WayFilled && B.WayTarget == Victim.Entry && Mode != 2)
        disableWay(B);
  }

  void fillWay(Block &B, const Block &Target) {
    std::vector<uint32_t> Words = wayWords(B.Way, Target.Entry, Target.Guest.Begin);
    for (uint32_t K = 6; K-- != 0;) // interior first, guard last
      Code.patch(B.Way + K, Words[K]);
    B.WayFilled = true;
    B.WayTarget = Target.Entry;
    B.WayTag = Target.Guest.Begin;
  }

  void disableWay(Block &B) {
    Code.patch(B.Way, host::encodeHost(host::brInst(host::HostOp::Br,
                                                    host::RegZero, 5)));
    B.WayFilled = false;
  }

  void stray(uint32_t W, uint32_t Word) {
    Strays.emplace(W, Code.word(W)); // keeps the first original
    Code.patch(W, Word);
  }

  void repairStrays() {
    for (const auto &[W, Word] : Strays)
      if (W < Code.size())
        Code.patch(W, Word);
    Strays.clear();
  }

  void flush() {
    Code.clear();
    Blocks.clear();
    Exempt.clear();
    Strays.clear();
  }

  analysis::VerifierInput input() const {
    analysis::VerifierInput In;
    for (const Block &B : Blocks) {
      if (!B.Valid)
        continue;
      analysis::VerifierBlock V{B.Entry, B.End, {B.Stub}};
      if (B.Patched)
        V.Patches.push_back({B.Fault, false});
      V.ExitWords.push_back(B.Exit);
      V.IcWays.push_back({B.Way, B.WayFilled, B.WayTarget, B.WayTag});
      V.GuestRanges.push_back(B.Guest);
      V.BornEpoch = B.Born;
      V.FusedSites.push_back({0, B.Fused.Begin, B.Fused.End, B.FusedWords});
      In.Blocks.push_back(std::move(V));
    }
    In.ExemptWords = Exempt;
    In.GuestDirtyEpoch = &Dirty;
    return In;
  }

  /// One random step; returns its name for failure messages.
  const char *step(mdabt::RNG &Rng) {
    int A = pickLive(Rng);
    int B = pickLive(Rng);
    switch (Rng.below(18)) {
    case 0:
    case 1:
    case 2:
      install(Rng);
      return "install";
    case 3:
      if (A < 0 || Blocks[A].Patched)
        return "noop";
      patchFault(Blocks[A]);
      return "patch";
    case 4:
      if (A < 0 || Blocks[A].Patched)
        return "noop";
      faultyPatch(Blocks[A], Rng.chance(0.5),
                  1u << Rng.below(32));
      return "faulty-patch";
    case 5:
      if (A < 0 || B < 0)
        return "noop";
      chain(Blocks[A], Blocks[B]);
      return "chain";
    case 6:
      if (A < 0)
        return "noop";
      unchain(Blocks[A]);
      Exempt.erase(Blocks[A].Exit);
      return "unchain";
    case 7:
      if (A < 0)
        return "noop";
      invalidate(Blocks[A], static_cast<unsigned>(Rng.below(3)));
      return "invalidate";
    case 8:
      if (A < 0)
        return "noop";
      Exempt.insert(Blocks[A].Exit);
      return "quarantine";
    case 9:
      if (Exempt.empty())
        return "noop";
      Exempt.erase(Exempt.begin());
      return "release";
    case 10:
      if (A < 0 || B < 0)
        return "noop";
      fillWay(Blocks[A], Blocks[B]);
      return "fill-way";
    case 11:
      if (A < 0 || !Blocks[A].WayFilled)
        return "noop";
      disableWay(Blocks[A]);
      return "disable-way";
    case 12: {
      // A stray write inside a region already verified clean, with no
      // bookkeeping change: a flipped bit or a copied neighbour word.
      if (A < 0)
        return "noop";
      const Block &Blk = Blocks[A];
      uint32_t W = Blk.Entry +
                   static_cast<uint32_t>(Rng.below(Blk.Stub.End - Blk.Entry));
      uint32_t Word = Rng.chance(0.5) ? Code.word(W) ^ (1u << Rng.below(32))
                                      : Code.word(Blk.Entry);
      stray(W, Word);
      return "stray-write";
    }
    case 13:
      repairStrays();
      return "repair";
    case 14:
      if (A < 0 || B < 0)
        return "noop";
      link(Blocks[A], Blocks[B]);
      return "link";
    case 15:
      if (A < 0)
        return "noop";
      unlink(Blocks[A]);
      Exempt.erase(Blocks[A].Side);
      return "unlink";
    case 16:
      // A guest store: into a live block's bytes (stale unless it is
      // invalidated) or, usually, elsewhere.
      ++Epoch;
      if (A >= 0 && Rng.chance(0.3))
        Dirty[Blocks[A].Guest.Begin +
              static_cast<uint32_t>(Rng.below(0x20))] = Epoch;
      else
        Dirty[0x80000 + static_cast<uint32_t>(Rng.below(64))] = Epoch;
      return "guest-store";
    default:
      if (!Rng.chance(0.25))
        return "noop";
      flush();
      return "flush";
    }
  }
};

void expectSameReport(const analysis::VerifyReport &Got,
                      const analysis::VerifyReport &Want,
                      const std::string &Where) {
  EXPECT_EQ(Got.WordsChecked, Want.WordsChecked) << Where;
  EXPECT_EQ(Got.RegionsChecked, Want.RegionsChecked) << Where;
  EXPECT_EQ(Got.MdaSequencesChecked, Want.MdaSequencesChecked) << Where;
  EXPECT_EQ(Got.FusedSitesChecked, Want.FusedSitesChecked) << Where;
  ASSERT_EQ(Got.Issues.size(), Want.Issues.size()) << Where;
  for (size_t I = 0; I != Got.Issues.size(); ++I)
    EXPECT_EQ(analysis::verifyIssueToString(Got.Issues[I]),
              analysis::verifyIssueToString(Want.Issues[I]))
        << Where << " issue " << I;
}

TEST(HostVerifierDifferential, RememberingVerifierMatchesFullSweep) {
  std::map<analysis::VerifyIssueKind, uint64_t> Seen;
  uint64_t Clean = 0, Failing = 0;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    mdabt::RNG Rng(Seed);
    CacheModel M;
    analysis::CodeVerifier Persistent;
    for (unsigned Step = 0; Step != 200; ++Step) {
      const char *What = M.step(Rng);
      analysis::VerifierInput In = M.input();
      analysis::VerifyReport Got = Persistent.verify(M.Code, In);
      analysis::VerifyReport Want = analysis::verifyCodeSpace(M.Code, In);
      std::string Where = "seed " + std::to_string(Seed) + " step " +
                          std::to_string(Step) + " (" + What + ")";
      ASSERT_NO_FATAL_FAILURE(expectSameReport(Got, Want, Where));
      if (Want.ok())
        ++Clean;
      else
        ++Failing;
      for (const analysis::VerifyIssue &I : Want.Issues)
        ++Seen[I.Kind];
    }
  }
  // The sequences must exercise both verdicts and every corruption the
  // model can produce.
  EXPECT_GT(Clean, 1000u);
  EXPECT_GT(Failing, 1000u);
  using K = analysis::VerifyIssueKind;
  for (K Kind : {K::Undecodable, K::BranchTargetBad, K::PatchSiteBad,
                 K::ExitSiteBad, K::MdaSequenceMalformed, K::IcWayBad,
                 K::StaleGuestCode, K::FusedSiteBad})
    EXPECT_GT(Seen[Kind], 0u) << analysis::verifyIssueKindName(Kind);
}

TEST(HostVerifierDifferential, StrayWriteInCleanRegionIsCaught) {
  // The remembering verifier must not trust its memory of a region
  // whose bounds and bookkeeping are unchanged: only the words moved.
  CacheModel M;
  mdabt::RNG Rng(7);
  M.install(Rng);
  M.install(Rng);
  analysis::CodeVerifier V;
  ASSERT_TRUE(V.verify(M.Code, M.input()).ok());
  const CacheModel::Block &B = M.Blocks[1];
  M.stray(B.Fault + 2, 12u << 26); // an undecodable word mid-sequence
  analysis::VerifyReport R = V.verify(M.Code, M.input());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::Undecodable);
  EXPECT_EQ(R.Issues[0].Word, B.Fault + 2);
  M.repairStrays();
  EXPECT_TRUE(V.verify(M.Code, M.input()).ok());
}

TEST(HostVerifierDifferential, BranchIntoDeadBlockIsCaughtWithoutWrites) {
  // Block 0's side branch jumps into block 1 and sweeps clean.  Block 1
  // then dies with the branch left in place: no word changes, yet the
  // untouched branch in block 0 is now wild.  No site check covers a
  // side branch, so only re-judging remembered targets catches it.
  CacheModel M;
  mdabt::RNG Rng(3);
  M.install(Rng);
  M.install(Rng);
  M.link(M.Blocks[0], M.Blocks[1]);
  analysis::CodeVerifier V;
  ASSERT_TRUE(V.verify(M.Code, M.input()).ok());
  M.invalidate(M.Blocks[1], /*Mode=*/2);
  analysis::VerifyReport R = V.verify(M.Code, M.input());
  ASSERT_FALSE(R.ok());
  ASSERT_EQ(R.Issues.size(), 1u);
  EXPECT_EQ(R.Issues[0].Kind, analysis::VerifyIssueKind::BranchTargetBad);
  EXPECT_EQ(R.Issues[0].Word, M.Blocks[0].Side);
}

} // namespace
