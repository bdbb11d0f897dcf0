//===- tests/translator_test.cpp - Block translator correctness -----------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates single guest blocks and executes them on the host machine,
/// comparing register/memory effects against the interpreter, across all
/// three memory-operation plans (Normal / Inline / MultiVersion).
///
//===----------------------------------------------------------------------===//

#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/Interpreter.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

using namespace mdabt;
using namespace mdabt::dbt;

namespace {

/// Translate the block at the image entry under \p Plan, run both the
/// interpreter and the host machine from identical state, and compare
/// the final guest-visible state and the exit PC.
struct BlockHarness {
  explicit BlockHarness(const guest::GuestImage &Image, MemPlan Plan)
      : Plan(Plan) {
    InterpMem.loadImage(Image);
    HostMem.loadImage(Image);
    Cpu.reset(Image);
    Block = discoverBlock(InterpMem, Image.Entry);
  }

  void run() {
    // Interpreter side.
    guest::GuestCPU ICpu = Cpu;
    guest::Interpreter Interp(InterpMem);
    Interp.stepBlock(ICpu);

    // Translated side.
    host::CodeSpace Code;
    Translation T = installPayload(
        Code,
        Translator::translate(
            Block, [&](uint32_t, const guest::GuestInst &) { return Plan; }),
        /*Generation=*/0);
    MemoryHierarchy Hier;
    host::CostModel Cost;
    host::HostMachine Machine(Code, HostMem, Hier, Cost);
    Machine.setFaultHandler([&](const host::FaultInfo &) {
      ++HostFaults;
      return host::FaultAction::Fixup;
    });
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Machine.R[hostGpr(I)] = Cpu.Gpr[I];
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Machine.R[hostQ(I)] = Cpu.Qreg[I];
    Machine.R[host::RegChecksum] = Cpu.Checksum;

    host::ExitInfo E = Machine.run(T.EntryWord);
    if (ICpu.Halted) {
      EXPECT_EQ(E.K, host::ExitInfo::Halt);
    } else {
      ASSERT_EQ(E.K, host::ExitInfo::Exit);
      EXPECT_EQ(E.GuestPc, ICpu.Pc) << "exit PC diverged";
    }
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      EXPECT_EQ(static_cast<uint32_t>(Machine.R[hostGpr(I)]), ICpu.Gpr[I])
          << "GPR " << I;
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      EXPECT_EQ(Machine.R[hostQ(I)], ICpu.Qreg[I]) << "Q" << I;
    EXPECT_EQ(Machine.R[host::RegChecksum], ICpu.Checksum) << "checksum";
    EXPECT_EQ(0, std::memcmp(InterpMem.data(), HostMem.data(),
                             InterpMem.size()))
        << "guest memory diverged";
  }

  MemPlan Plan;
  guest::GuestMemory InterpMem;
  guest::GuestMemory HostMem;
  guest::GuestCPU Cpu;
  GuestBlock Block;
  unsigned HostFaults = 0;
};

const MemPlan AllPlans[] = {MemPlan::Normal, MemPlan::Inline,
                            MemPlan::MultiVersion};

} // namespace

TEST(GuestBlockTest, DiscoversUpToTerminator) {
  guest::ProgramBuilder B("t");
  B.movri(0, 1);
  B.addi(0, 2);
  auto L = B.newLabel();
  B.jmp(L);
  B.bind(L);
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  GuestBlock Blk = discoverBlock(Mem, Image.Entry);
  ASSERT_EQ(Blk.size(), 3u);
  EXPECT_EQ(Blk.Insts.back().Op, guest::Opcode::Jmp);
  GuestBlock Tail = discoverBlock(Mem, Blk.Insts.back().branchTarget(
                                           Blk.InstPcs.back()));
  ASSERT_EQ(Tail.size(), 1u);
  EXPECT_EQ(Tail.Insts[0].Op, guest::Opcode::Halt);
}

TEST(TranslatorTest, StraightLineAlu) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    B.movri(0, 100);
    B.movri(1, 7);
    B.add(0, 1);
    B.muli(0, 3);
    B.subi(0, 21);    // 300
    B.movri(2, -1);
    B.xori(2, 0xff);  // 0xffffff00
    B.movri(3, 0x80000000);
    B.shri(3, 4);
    B.chk(0);
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, ShiftVariants) {
  guest::ProgramBuilder B("t");
  B.movri(0, 0x80000001);
  B.movri(1, 33); // masked to 1
  B.movri(2, 0x80000001);
  B.shl(2, 1);
  B.movri(3, 0x80000001);
  B.shr(3, 1);
  B.movri(5, -64);
  B.sari(5, 3);
  B.movri(6, -64);
  B.movri(7, 2);
  B.sar(6, 7);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, AlignedMemoryOps) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(128, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 0x11223344);
    B.stl(guest::mem(0, 0), 1);
    B.ldl(2, guest::mem(0, 0));
    B.stw(guest::mem(0, 8), 1);
    B.ldw(3, guest::mem(0, 8));
    B.stb(guest::mem(0, 12), 1);
    B.ldb(5, guest::mem(0, 12));
    B.qmovi(0, -7);
    B.stq(guest::mem(0, 16), 0);
    B.ldq(1, guest::mem(0, 16));
    B.qchk(1);
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "aligned ops must not fault";
  }
}

TEST(TranslatorTest, MisalignedMemoryOpsInlinePlanAvoidsFaults) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(128, 8);
  B.movri(0, static_cast<int32_t>(Buf + 1));
  B.movri(1, 0xdeadbeef);
  B.stl(guest::mem(0, 0), 1);
  B.ldl(2, guest::mem(0, 0));
  B.qmovi(0, 12345);
  B.stq(guest::mem(0, 8), 0);
  B.ldq(1, guest::mem(0, 8));
  B.stw(guest::mem(0, 20), 1);
  B.ldw(3, guest::mem(0, 20));
  B.halt();
  guest::GuestImage Image = B.build();
  {
    BlockHarness H(Image, MemPlan::Inline);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "inline MDA sequences never trap";
  }
  {
    BlockHarness H(Image, MemPlan::MultiVersion);
    H.run();
    EXPECT_EQ(H.HostFaults, 0u) << "multi-version code never traps";
  }
  {
    BlockHarness H(Image, MemPlan::Normal);
    H.run();
    EXPECT_EQ(H.HostFaults, 6u) << "normal plan faults on each MDA";
  }
}

TEST(TranslatorTest, AddressingModes) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(4096, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 5); // index
    B.movri(2, 0xabcd1234);
    B.stl(guest::memIdx(0, 1, 2, 8), 2);       // Buf + 20 + 8
    B.ldl(3, guest::mem(0, 28));
    B.stl(guest::memIdx(0, 1, 3, 1), 2);       // Buf + 40 + 1 (misaligned)
    B.ldl(5, guest::memIdx(0, 1, 3, 1));
    B.lea(6, guest::memIdx(0, 1, 1, -2));      // Buf + 10 - 2
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, LargeDisplacements) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(200000, 8);
    B.movri(0, static_cast<int32_t>(Buf));
    B.movri(1, 0x5a5a5a5a);
    B.stl(guest::mem(0, 100001), 1); // misaligned, disp32
    B.ldl(2, guest::mem(0, 100001));
    B.stq(guest::mem(0, 131072), 1); // aligned? Buf is 8-aligned, disp 2^17
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, NegativeDisplacement) {
  for (MemPlan P : AllPlans) {
    guest::ProgramBuilder B("t");
    uint32_t Buf = B.dataReserve(64, 8);
    B.movri(0, static_cast<int32_t>(Buf + 32));
    B.movri(1, 42);
    B.stl(guest::mem(0, -13), 1); // misaligned negative disp
    B.ldl(2, guest::mem(0, -13));
    B.halt();
    BlockHarness H(B.build(), P);
    H.run();
  }
}

TEST(TranslatorTest, CompareAndBranchAllConditions) {
  const guest::Cond Conds[] = {guest::Cond::Eq, guest::Cond::Ne,
                               guest::Cond::Lt, guest::Cond::Ge,
                               guest::Cond::Le, guest::Cond::Gt,
                               guest::Cond::B,  guest::Cond::Ae};
  const int32_t Pairs[][2] = {{1, 2},  {2, 1},   {3, 3},
                              {-1, 1}, {1, -1},  {-5, -5},
                              {0, 0},  {INT32_MIN, INT32_MAX}};
  for (guest::Cond C : Conds) {
    for (const auto &P : Pairs) {
      guest::ProgramBuilder B("t");
      B.movri(0, P[0]);
      B.movri(1, P[1]);
      auto L = B.newLabel();
      B.cmp(0, 1);
      B.jcc(C, L);
      B.movri(2, 111);
      B.bind(L);
      B.halt();
      // Only translate the first block (up to the Jcc).
      BlockHarness H(B.build(), MemPlan::Normal);
      H.run();
    }
  }
}

TEST(TranslatorTest, CompareImmediateForms) {
  for (int32_t Imm : {0, 1, 255, 256, -1, 100000, INT32_MIN}) {
    guest::ProgramBuilder B("t");
    B.movri(0, 77);
    auto L = B.newLabel();
    B.cmpi(0, Imm);
    B.jcc(guest::Cond::Lt, L);
    B.movri(1, 1);
    B.bind(L);
    B.halt();
    BlockHarness H(B.build(), MemPlan::Normal);
    H.run();
  }
}

TEST(TranslatorTest, CallPushesReturnAddress) {
  guest::ProgramBuilder B("t");
  auto Fn = B.newLabel();
  B.movri(0, 5);
  B.call(Fn);
  B.bind(Fn);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, RetPopsReturnAddress) {
  // Build a block that is just "ret", with the stack prepared.
  guest::ProgramBuilder B("t");
  B.ret();
  guest::GuestImage Image = B.build();
  // Prepare a return address on the stack in both memories via image
  // data?  Simpler: seed the stack via CPU + memory stores below.
  BlockHarness H(Image, MemPlan::Normal);
  H.Cpu.Gpr[guest::RegSP] = guest::layout::StackTop - 4;
  H.InterpMem.store(H.Cpu.Gpr[guest::RegSP], 4, 0x4000);
  H.HostMem.store(H.Cpu.Gpr[guest::RegSP], 4, 0x4000);
  H.run();
}

TEST(TranslatorTest, QRegisterOps) {
  guest::ProgramBuilder B("t");
  B.qmovi(0, -100000);
  B.qmovi(1, 300);
  B.qadd(0, 1);
  B.qaddi(0, 77);
  B.qaddi(0, -1000);
  B.movri(3, 0xdead);
  B.gtoq(2, 3);
  B.qxor(0, 2);
  B.qtog(5, 0);
  B.qchk(0);
  B.halt();
  BlockHarness H(B.build(), MemPlan::Normal);
  H.run();
}

TEST(TranslatorTest, MovriExtremes) {
  for (int32_t V : {0, 1, 0x7fff, 0x8000, -1, INT32_MAX, INT32_MIN,
                    0x12345678}) {
    guest::ProgramBuilder B("t");
    B.movri(0, V);
    B.chk(0);
    B.halt();
    BlockHarness H(B.build(), MemPlan::Normal);
    H.run();
  }
}

TEST(TranslatorTest, StubEmissionAndPatching) {
  // Manually exercise the exception handler's code path: emit a stub for
  // a faulting ldl and patch the site.
  host::CodeSpace Code;
  host::HostAssembler Asm(Code);
  uint32_t FaultW = Asm.mem(host::HostOp::Ldl, 3, 1, 2);
  Asm.srv(host::SrvFunc::Halt);
  Asm.finish();

  host::HostInst Faulting;
  ASSERT_TRUE(host::decodeHost(Code.word(FaultW), Faulting));
  Translator::StubInfo S = Translator::emitStub(Code, Faulting, FaultW);
  Code.patch(FaultW, Translator::stubBranchWord(FaultW, S.Entry));

  guest::GuestMemory Mem;
  Mem.store(0x1001, 4, 0xfeedf00d);
  MemoryHierarchy Hier;
  host::CostModel Cost;
  host::HostMachine Machine(Code, Mem, Hier, Cost);
  Machine.setFaultHandler([](const host::FaultInfo &) {
    ADD_FAILURE() << "patched code must not fault";
    return host::FaultAction::Halt;
  });
  Machine.R[2] = 0x1000;
  ASSERT_EQ(Machine.run(0).K, host::ExitInfo::Halt);
  EXPECT_EQ(Machine.R[3], 0xfeedf00du);
  EXPECT_EQ(Machine.Faults, 0u);
}

TEST(TranslatorTest, RecordsMemWordMapping) {
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(0, static_cast<int32_t>(Buf));
  B.ldl(1, guest::mem(0, 0));  // trapping-capable
  B.ldb(2, guest::mem(0, 4));  // byte: never traps, not recorded
  B.stq(guest::mem(0, 8), 0);  // trapping-capable
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  GuestBlock Blk = discoverBlock(Mem, Image.Entry);
  host::CodeSpace Code;
  Translation T = installPayload(
      Code,
      Translator::translate(
          Blk,
          [](uint32_t, const guest::GuestInst &) { return MemPlan::Normal; }),
      /*Generation=*/0);
  EXPECT_EQ(T.MemWordToGuestPc.size(), 2u);
  EXPECT_EQ(T.GuestInsts, Blk.size());
  EXPECT_GT(T.EndWord, T.EntryWord);
}

TEST(TranslatorTest, PayloadInstallsIdenticallyAtAnyArenaBase) {
  // A two-block trace: the head stores, carries a fused mov-op pair and
  // leaves the trace through a direct side exit; the tail ends in an
  // indirect exit with inline-cache ways.
  guest::ProgramBuilder B("t");
  uint32_t Buf = B.dataReserve(64, 8);
  guest::ProgramBuilder::Label Off = B.newLabel();
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(5, 9);
  B.stl(guest::mem(0, 0), 5);
  B.movrr(3, 5);
  B.add(3, 0); // MovOp
  B.cmpi(3, 1);
  B.jcc(guest::Cond::Lt, Off);
  B.jmpr(3);
  B.bind(Off);
  B.halt();
  guest::GuestImage Image = B.build();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  std::vector<GuestBlock> Blocks;
  Blocks.push_back(discoverBlock(Mem, Image.Entry));
  Blocks.push_back(discoverBlock(Mem, Blocks.front().endPc()));
  TranslationOpts Opts;
  Opts.IcWays = 2;
  Opts.FusionMask = FusionMaskAll;

  // Translating is pure: the run arena does not grow.
  constexpr uint32_t N = 37;
  host::CodeSpace Empty, Filled;
  for (uint32_t I = 0; I != N; ++I)
    Filled.append(host::encodeHost(host::opInst(
        host::HostOp::Bis, host::RegZero, host::RegZero, host::RegZero)));
  CachedTranslation P = Translator::translateTrace(
      Blocks,
      [](uint32_t, const guest::GuestInst &) { return MemPlan::Normal; },
      Opts);
  EXPECT_EQ(Filled.size(), N);
  ASSERT_EQ(P.IcSites.size(), 1u);
  EXPECT_EQ(P.IcSites.front().WayBegins.size(), 2u);
  EXPECT_TRUE(std::any_of(P.Exits.begin(), P.Exits.end(),
                          [](const CachedTranslation::RelExit &X) {
                            return X.Direct != 0;
                          }));
  ASSERT_FALSE(P.StoreResume.empty());
  ASSERT_FALSE(P.FusedSites.empty());

  Translation TA = installPayload(Empty, P, /*Generation=*/0);
  Translation TB = installPayload(Filled, P, /*Generation=*/0);
  ASSERT_EQ(TA.EntryWord, 0u);
  ASSERT_EQ(TB.EntryWord, N);
  ASSERT_EQ(TB.EndWord - TB.EntryWord, P.Words.size());
  EXPECT_EQ(TB.EndWord, TA.EndWord + N);

  // Identical words at both bases.
  for (uint32_t I = 0; I != P.Words.size(); ++I) {
    EXPECT_EQ(Empty.word(TA.EntryWord + I), P.Words[I]) << "word " << I;
    EXPECT_EQ(Filled.word(TB.EntryWord + I), P.Words[I]) << "word " << I;
  }

  // Every metadata word index moves by exactly N.
  ASSERT_EQ(TA.Exits.size(), TB.Exits.size());
  for (size_t I = 0; I != TA.Exits.size(); ++I)
    EXPECT_EQ(TB.Exits[I].SrvWord, TA.Exits[I].SrvWord + N);
  ASSERT_EQ(TA.MemWordToGuestPc.size(), TB.MemWordToGuestPc.size());
  for (const auto &KV : TA.MemWordToGuestPc) {
    auto It = TB.MemWordToGuestPc.find(KV.first + N);
    ASSERT_NE(It, TB.MemWordToGuestPc.end());
    EXPECT_EQ(It->second, KV.second);
  }
  ASSERT_EQ(TA.StoreResume.size(), TB.StoreResume.size());
  for (const auto &KV : TA.StoreResume) {
    auto It = TB.StoreResume.find(KV.first + N);
    ASSERT_NE(It, TB.StoreResume.end());
    EXPECT_EQ(It->second.EndWord, KV.second.EndWord + N);
    EXPECT_EQ(It->second.ResumePc, KV.second.ResumePc);
  }
  ASSERT_EQ(TA.IcSites.size(), TB.IcSites.size());
  for (size_t I = 0; I != TA.IcSites.size(); ++I) {
    EXPECT_EQ(TB.IcSites[I].SrvWord, TA.IcSites[I].SrvWord + N);
    ASSERT_EQ(TA.IcSites[I].Ways.size(), TB.IcSites[I].Ways.size());
    for (size_t W = 0; W != TA.IcSites[I].Ways.size(); ++W)
      EXPECT_EQ(TB.IcSites[I].Ways[W].Begin,
                TA.IcSites[I].Ways[W].Begin + N);
  }

  // Fused-site reference words are the payload slice, at either base.
  ASSERT_EQ(TB.FusedSites.size(), P.FusedSites.size());
  ASSERT_EQ(TA.FusedSites.size(), P.FusedSites.size());
  for (size_t I = 0; I != P.FusedSites.size(); ++I) {
    const CachedTranslation::RelFusedSite &R = P.FusedSites[I];
    std::vector<uint32_t> Slice(P.Words.begin() + R.Begin,
                                P.Words.begin() + R.End);
    EXPECT_EQ(TA.FusedSites[I].Begin, R.Begin);
    EXPECT_EQ(TB.FusedSites[I].Begin, R.Begin + N);
    EXPECT_EQ(TB.FusedSites[I].End, R.End + N);
    EXPECT_EQ(TA.FusedSites[I].Words, Slice);
    EXPECT_EQ(TB.FusedSites[I].Words, Slice);
  }
}

namespace {

/// FNV-1a over a stream of 32-bit values (the pinned-lowering digest).
struct LoweringDigest {
  uint64_t H = 1469598103934665603ull;
  void add(uint32_t V) {
    for (unsigned K = 0; K != 4; ++K) {
      H ^= (V >> (8 * K)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  /// Every word and every piece of install metadata of \p P.
  void add(const CachedTranslation &P) {
    add(P.GuestPc);
    add(P.GuestInsts);
    add(P.IsTrace);
    add(static_cast<uint32_t>(P.Words.size()));
    for (uint32_t W : P.Words)
      add(W);
    add(static_cast<uint32_t>(P.Exits.size()));
    for (const CachedTranslation::RelExit &X : P.Exits) {
      add(X.Word);
      add(X.TargetGuestPc);
      add(X.Direct);
    }
    add(static_cast<uint32_t>(P.MemWordToGuestPc.size()));
    for (const auto &KV : P.MemWordToGuestPc) {
      add(KV.first);
      add(KV.second);
    }
    add(static_cast<uint32_t>(P.StoreResume.size()));
    for (const CachedTranslation::RelResume &R : P.StoreResume) {
      add(R.Word);
      add(R.EndWord);
      add(R.ResumePc);
    }
    add(static_cast<uint32_t>(P.PlanByPc.size()));
    for (const auto &KV : P.PlanByPc) {
      add(KV.first);
      add(KV.second);
    }
    add(static_cast<uint32_t>(P.IcSites.size()));
    for (const CachedTranslation::RelIcSite &S : P.IcSites) {
      add(S.SrvWord);
      add(static_cast<uint32_t>(S.WayBegins.size()));
      for (uint32_t B : S.WayBegins)
        add(B);
    }
    add(static_cast<uint32_t>(P.Constituents.size()));
    for (uint32_t C : P.Constituents)
      add(C);
    add(static_cast<uint32_t>(P.GuestRanges.size()));
    for (const auto &R : P.GuestRanges) {
      add(R.first);
      add(R.second);
    }
    add(static_cast<uint32_t>(P.FusedSites.size()));
    for (const CachedTranslation::RelFusedSite &F : P.FusedSites) {
      add(F.Rule);
      add(F.GuestLen);
      add(F.Begin);
      add(F.End);
      add(F.GuestPc);
      add(F.SavedWords);
    }
  }
};

/// A program whose straight-line blocks together use every guest opcode,
/// every addressing shape the translator distinguishes, every fusion
/// rule's idiom and every block terminator.
guest::GuestImage loweringCorpus() {
  using namespace guest;
  ProgramBuilder B("lowering-corpus");
  uint32_t Buf = B.dataReserve(1024, 8);
  ProgramBuilder::Label Tail = B.newLabel();
  ProgramBuilder::Label Fn = B.newLabel();
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(1, 3);
  B.movri(2, 0x12345678);
  B.movri(7, -1);
  B.nop();
  B.chk(1);
  B.qchk(2);
  B.ldb(2, mem(0, 1));
  B.ldw(2, mem(0, 2));
  B.ldl(2, mem(0, 6)); // displacement not a multiple of the size
  B.ldq(1, mem(0, 8));
  B.stb(mem(0, 3), 2);
  B.stw(mem(0, 10), 2);
  B.stl(mem(0, 12), 2);
  B.stq(mem(0, 16), 1);
  B.ldl(4, memIdx(0, 1, 2, 4));
  B.ldl(4, memIdx(0, 1, 0, -8));
  B.stl(memIdx(0, 1, 3, 40000), 4); // displacement past disp16
  B.ldl(4, mem(0, -100000));
  B.ldq(3, memIdx(0, 1, 3, 24));
  B.lea(5, memIdx(0, 1, 2, 12));
  B.lea(5, mem(0, 70000));
  B.movrr(6, 5);
  B.add(6, 1); // MovOp
  B.sub(6, 1);
  B.and_(6, 2);
  B.or_(6, 1);
  B.xor_(6, 2);
  B.shl(6, 1);
  B.shr(6, 1);
  B.sar(6, 1);
  B.mul(6, 2);
  B.addi(6, 7);
  B.addi(6, 100000);
  B.addi(4, -5); // ImmNeg
  B.subi(4, -7); // ImmNeg
  B.subi(6, 300);
  B.andi(6, 0xff0);
  B.ori(6, 12);
  B.xori(6, -2);
  B.shli(6, 3);
  B.shri(6, 2);
  B.sari(6, 1);
  B.muli(6, 3);
  B.muli(6, 70000);
  B.movrr(3, 5);
  B.addi(3, 9); // MovOpI
  B.ldl(2, memIdx(0, 1, 2, 64)); // LdOpSt
  B.addi(2, 1);
  B.stl(memIdx(0, 1, 2, 64), 2);
  B.ldw(2, memIdx(0, 1, 1, 128)); // SharedAddr
  B.ldl(6, memIdx(0, 1, 1, 132));
  B.stq(memIdx(0, 1, 1, 136), 2);
  B.qmov(3, 1);
  B.qmovi(2, -5);
  B.qadd(2, 3);
  B.qaddi(2, 7);
  B.qaddi(2, 1000);
  B.qaddi(2, -3);
  B.qxor(2, 3);
  B.gtoq(3, 4);
  B.qtog(5, 3);
  B.cmp(1, 2);
  B.jcc(Cond::Lt, Tail);
  B.cmpi(1, 0); // CmpBr0, Eq
  B.jcc(Cond::Eq, Tail);
  B.cmpi(1, 0); // CmpBr0, Ne
  B.jcc(Cond::Ne, Tail);
  B.cmpi(1, 0); // not CmpBr0: an ordering against 0
  B.jcc(Cond::Ge, Tail);
  B.cmpi(1, 200);
  B.jcc(Cond::Le, Tail);
  B.cmpi(1, 70000);
  B.jcc(Cond::Gt, Tail);
  B.cmpi(1, -4);
  B.jcc(Cond::B, Tail);
  B.cmp(1, 2);
  B.jcc(Cond::Ae, Tail);
  B.cmp(2, 1);
  B.jcc(Cond::Eq, Tail);
  B.cmp(2, 1);
  B.jcc(Cond::Ne, Tail);
  B.call(Fn);
  B.jmp(Tail);
  B.bind(Fn);
  B.ldl(2, mem(0, 0));
  B.ret();
  B.bind(Tail);
  B.jmpr(5);
  B.halt();
  return B.build();
}

} // namespace

TEST(TranslatorTest, LoweringIsPinned) {
  // Any change to an emitted host word or to install metadata changes
  // this digest.  A refactor of the lowering must keep it; a deliberate
  // lowering change updates the constant together with the modeled
  // numbers it moves.
  guest::GuestImage Image = loweringCorpus();
  guest::GuestMemory Mem;
  Mem.loadImage(Image);
  std::vector<GuestBlock> Blocks;
  for (uint32_t Pc = Image.Entry;;) {
    Blocks.push_back(discoverBlock(Mem, Pc));
    if (Blocks.back().Insts.back().Op == guest::Opcode::Halt)
      break;
    Pc = Blocks.back().endPc();
  }
  ASSERT_GE(Blocks.size(), 15u);

  // Two-block traces: every block followed by its fall-through block,
  // and every conditional block followed by its taken target.
  std::vector<std::vector<GuestBlock>> Traces;
  for (size_t I = 0; I + 1 != Blocks.size(); ++I) {
    Traces.push_back({Blocks[I], Blocks[I + 1]});
    const guest::GuestInst &Last = Blocks[I].Insts.back();
    if (Last.Op == guest::Opcode::Jcc)
      Traces.push_back(
          {Blocks[I], discoverBlock(Mem, Last.branchTarget(
                                             Blocks[I].InstPcs.back()))});
  }

  const Translator::PlanFn Plans[] = {
      [](uint32_t, const guest::GuestInst &) { return MemPlan::Normal; },
      [](uint32_t, const guest::GuestInst &) { return MemPlan::Elide; },
      [](uint32_t, const guest::GuestInst &) { return MemPlan::Inline; },
      [](uint32_t, const guest::GuestInst &) {
        return MemPlan::MultiVersion;
      },
      // Mixed: every plan somewhere, so block multi-version splits
      // mid-block and fusion sees ineligible neighbours.
      [](uint32_t Pc, const guest::GuestInst &) {
        return static_cast<MemPlan>((Pc * 2654435761u) >> 30);
      },
  };

  LoweringDigest D;
  uint32_t RulesSeen = 0;
  size_t IcSitesSeen = 0;
  auto Add = [&](const CachedTranslation &P) {
    D.add(P);
    for (const CachedTranslation::RelFusedSite &F : P.FusedSites)
      RulesSeen |= 1u << F.Rule;
    IcSitesSeen += P.IcSites.size();
  };
  for (const Translator::PlanFn &Plan : Plans)
    for (bool BlockMv : {false, true})
      for (unsigned IcWays : {0u, 2u})
        for (uint32_t Mask : {0u, FusionMaskAll}) {
          TranslationOpts Opts;
          Opts.BlockMultiVersion = BlockMv;
          Opts.IcWays = IcWays;
          Opts.FusionMask = Mask;
          for (const GuestBlock &Blk : Blocks)
            Add(Translator::translate(Blk, Plan, Opts));
          for (const std::vector<GuestBlock> &T : Traces)
            Add(Translator::translateTrace(T, Plan, Opts));
        }
  // The corpus keeps exercising every fusion rule and inline caches.
  EXPECT_EQ(RulesSeen, FusionMaskAll);
  EXPECT_GT(IcSitesSeen, 0u);

  // Plain (threshold 0) and adaptive stubs for every trapping host
  // access, each emitted after its fault site in one shared arena.
  host::CodeSpace Code;
  for (host::HostOp Op : {host::HostOp::Ldwu, host::HostOp::Ldl,
                          host::HostOp::Ldq, host::HostOp::Stw,
                          host::HostOp::Stl, host::HostOp::Stq})
    for (int32_t Disp : {0, 3, -6, 32000})
      for (uint32_t Threshold : {0u, 1u, 64u, 255u}) {
        host::HostInst Faulting =
            host::memInst(Op, hostGpr(3), Disp, hostGpr(0));
        uint32_t FaultW = Code.append(host::encodeHost(Faulting));
        Translator::StubInfo S = Translator::emitStub(
            Code, Faulting, FaultW, 0x2000, 0x1000, Threshold);
        D.add(S.Entry);
        D.add(S.End);
        D.add(Translator::stubBranchWord(FaultW, S.Entry));
      }
  for (uint32_t W = 0; W != Code.size(); ++W)
    D.add(Code.word(W));

  EXPECT_EQ(D.H, 0x4af34aede555a668ull)
      << std::hex << "lowering digest 0x" << D.H;
}
