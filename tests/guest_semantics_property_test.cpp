//===- tests/guest_semantics_property_test.cpp - GX86 op properties -------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the guest interpreter's ALU semantics: every
/// arithmetic/logic opcode runs with randomized and adversarial operands
/// against an independent reference model, in both register and
/// immediate forms; and a dedicated ALU-sequence fuzz compares the
/// interpreter against the translator+host pipeline instruction by
/// instruction (no memory involved, isolating data-path lowering bugs
/// from addressing bugs).
///
//===----------------------------------------------------------------------===//

#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/Translator.h"
#include "guest/Assembler.h"
#include "guest/Interpreter.h"
#include "host/HostMachine.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace mdabt;
using namespace mdabt::guest;

namespace {

/// Independent reference for the two-operand ALU semantics.
uint32_t reference(Opcode Op, uint32_t A, uint32_t B) {
  switch (Op) {
  case Opcode::MovRR:
  case Opcode::MovRI:
    return B;
  case Opcode::Add:
  case Opcode::AddI:
    return A + B;
  case Opcode::Sub:
  case Opcode::SubI:
    return A - B;
  case Opcode::And:
  case Opcode::AndI:
    return A & B;
  case Opcode::Or:
  case Opcode::OrI:
    return A | B;
  case Opcode::Xor:
  case Opcode::XorI:
    return A ^ B;
  case Opcode::Shl:
  case Opcode::ShlI:
    return A << (B & 31);
  case Opcode::Shr:
  case Opcode::ShrI:
    return A >> (B & 31);
  case Opcode::Sar:
  case Opcode::SarI:
    return static_cast<uint32_t>(static_cast<int32_t>(A) >> (B & 31));
  case Opcode::Mul:
  case Opcode::MulI:
    return A * B;
  default:
    ADD_FAILURE() << "no reference for opcode " << opcodeName(Op);
    return 0;
  }
}

struct OpPair {
  Opcode RegForm;
  Opcode ImmForm;
};

const OpPair AluOps[] = {
    {Opcode::Add, Opcode::AddI}, {Opcode::Sub, Opcode::SubI},
    {Opcode::And, Opcode::AndI}, {Opcode::Or, Opcode::OrI},
    {Opcode::Xor, Opcode::XorI}, {Opcode::Shl, Opcode::ShlI},
    {Opcode::Shr, Opcode::ShrI}, {Opcode::Sar, Opcode::SarI},
    {Opcode::Mul, Opcode::MulI}};

const uint32_t Corners[] = {0,          1,          2,          31,
                            32,         0x7f,       0x80,       0xff,
                            0x7fff,     0x8000,     0xffff,     0x10000,
                            0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff};

/// Run a two-instruction program (load operands, apply op) through the
/// interpreter.
uint32_t interpretOp(Opcode Op, uint32_t A, uint32_t B, bool Immediate) {
  ProgramBuilder Builder("t");
  Builder.movri(0, static_cast<int32_t>(A));
  if (Immediate) {
    Builder.aluImm(Op, 0, static_cast<int32_t>(B));
  } else {
    Builder.movri(1, static_cast<int32_t>(B));
    Builder.alu(Op, 0, 1);
  }
  Builder.halt();
  GuestImage Image = Builder.build();
  GuestMemory Mem;
  Mem.loadImage(Image);
  GuestCPU Cpu;
  Cpu.reset(Image);
  Interpreter Interp(Mem);
  Interp.run(Cpu, 100);
  EXPECT_TRUE(Cpu.Halted);
  return Cpu.Gpr[0];
}

class GuestAluPropertyTest : public ::testing::TestWithParam<OpPair> {};

} // namespace

TEST_P(GuestAluPropertyTest, RegisterFormMatchesReference) {
  OpPair P = GetParam();
  RNG R(static_cast<uint64_t>(P.RegForm) * 733 + 3);
  for (int I = 0; I != 120; ++I) {
    uint32_t A = static_cast<uint32_t>(R.next());
    uint32_t B = static_cast<uint32_t>(R.next());
    EXPECT_EQ(interpretOp(P.RegForm, A, B, false),
              reference(P.RegForm, A, B))
        << opcodeName(P.RegForm) << " A=" << A << " B=" << B;
  }
  for (uint32_t A : Corners)
    for (uint32_t B : Corners)
      EXPECT_EQ(interpretOp(P.RegForm, A, B, false),
                reference(P.RegForm, A, B))
          << opcodeName(P.RegForm) << " A=" << A << " B=" << B;
}

TEST_P(GuestAluPropertyTest, ImmediateFormMatchesReference) {
  OpPair P = GetParam();
  RNG R(static_cast<uint64_t>(P.ImmForm) * 547 + 11);
  for (int I = 0; I != 120; ++I) {
    uint32_t A = static_cast<uint32_t>(R.next());
    uint32_t B = static_cast<uint32_t>(R.next());
    EXPECT_EQ(interpretOp(P.ImmForm, A, B, true),
              reference(P.ImmForm, A, B))
        << opcodeName(P.ImmForm) << " A=" << A << " B=" << B;
  }
}

TEST_P(GuestAluPropertyTest, SameRegisterOperandsWork) {
  // alu(r, r): A == B, a classic aliasing corner.
  OpPair P = GetParam();
  for (uint32_t A : Corners) {
    ProgramBuilder Builder("t");
    Builder.movri(2, static_cast<int32_t>(A));
    Builder.alu(P.RegForm, 2, 2);
    Builder.halt();
    GuestImage Image = Builder.build();
    GuestMemory Mem;
    Mem.loadImage(Image);
    GuestCPU Cpu;
    Cpu.reset(Image);
    Interpreter Interp(Mem);
    Interp.run(Cpu, 100);
    EXPECT_EQ(Cpu.Gpr[2], reference(P.RegForm, A, A))
        << opcodeName(P.RegForm) << " A=" << A;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAluOps, GuestAluPropertyTest,
                         ::testing::ValuesIn(AluOps),
                         [](const ::testing::TestParamInfo<OpPair> &I) {
                           return opcodeName(I.param.RegForm);
                         });

namespace {

/// Translate a straight-line block and run it on the host machine,
/// returning the final guest GPR/Q state, for comparison against the
/// interpreter.
struct LoweredState {
  uint32_t Gpr[NumGPR];
  uint64_t Qreg[NumQReg];
  uint64_t Checksum;
};

LoweredState runLowered(const GuestImage &Image) {
  GuestMemory Mem;
  Mem.loadImage(Image);
  dbt::GuestBlock Blk = dbt::discoverBlock(Mem, Image.Entry);
  host::CodeSpace Code;
  dbt::Translation T = dbt::installPayload(
      Code,
      dbt::Translator::translate(
          Blk,
          [](uint32_t, const GuestInst &) { return dbt::MemPlan::Normal; }),
      /*Generation=*/0);
  MemoryHierarchy Hier;
  host::CostModel Cost;
  host::HostMachine Machine(Code, Mem, Hier, Cost);
  // Start from the same architectural state the interpreter starts from.
  GuestCPU Init;
  Init.reset(Image);
  for (unsigned I = 0; I != NumGPR; ++I)
    Machine.R[dbt::hostGpr(I)] = Init.Gpr[I];
  EXPECT_EQ(Machine.run(T.EntryWord).K, host::ExitInfo::Halt);
  LoweredState S;
  for (unsigned I = 0; I != NumGPR; ++I)
    S.Gpr[I] = static_cast<uint32_t>(Machine.R[dbt::hostGpr(I)]);
  for (unsigned I = 0; I != NumQReg; ++I)
    S.Qreg[I] = Machine.R[dbt::hostQ(I)];
  S.Checksum = Machine.R[host::RegChecksum];
  return S;
}

} // namespace

TEST(AluLoweringFuzzTest, InterpreterAndTranslatorAgree) {
  // Pure ALU/Q-register straight-line fuzz: isolates data-path lowering
  // from memory addressing.
  for (uint64_t Seed = 1; Seed != 80; ++Seed) {
    RNG R(Seed * 6364136223846793005ULL + 1);
    ProgramBuilder B("alufuzz");
    for (int I = 0; I != 40; ++I) {
      uint8_t Dst = static_cast<uint8_t>(R.below(8));
      uint8_t Src = static_cast<uint8_t>(R.below(8));
      switch (R.below(8)) {
      case 0:
        B.movri(Dst, static_cast<int32_t>(R.next()));
        break;
      case 1:
        B.alu(AluOps[R.below(9)].RegForm, Dst, Src);
        break;
      case 2:
        B.aluImm(AluOps[R.below(9)].ImmForm, Dst,
                 static_cast<int32_t>(R.next()));
        break;
      case 3:
        B.qmovi(static_cast<uint8_t>(R.below(8)),
                static_cast<int32_t>(R.next()));
        break;
      case 4:
        B.qadd(static_cast<uint8_t>(R.below(8)),
               static_cast<uint8_t>(R.below(8)));
        break;
      case 5:
        B.qxor(static_cast<uint8_t>(R.below(8)),
               static_cast<uint8_t>(R.below(8)));
        break;
      case 6:
        B.gtoq(static_cast<uint8_t>(R.below(8)), Src);
        break;
      case 7:
        B.chk(Src);
        break;
      }
    }
    B.halt();
    GuestImage Image = B.build();

    GuestMemory Mem;
    Mem.loadImage(Image);
    GuestCPU Cpu;
    Cpu.reset(Image);
    Interpreter Interp(Mem);
    Interp.run(Cpu, 1000);
    ASSERT_TRUE(Cpu.Halted) << "seed " << Seed;

    LoweredState S = runLowered(Image);
    for (unsigned I = 0; I != NumGPR; ++I)
      EXPECT_EQ(S.Gpr[I], Cpu.Gpr[I]) << "seed " << Seed << " GPR " << I;
    for (unsigned I = 0; I != NumQReg; ++I)
      EXPECT_EQ(S.Qreg[I], Cpu.Qreg[I]) << "seed " << Seed << " Q" << I;
    EXPECT_EQ(S.Checksum, Cpu.Checksum) << "seed " << Seed;
  }
}
