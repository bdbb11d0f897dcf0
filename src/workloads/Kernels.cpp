//===- workloads/Kernels.cpp ----------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Kernels.h"

#include <cassert>

using namespace mdabt;
using namespace mdabt::guest;
using namespace mdabt::workloads;

double mdabt::workloads::biasFraction(BiasKind B) {
  switch (B) {
  case BiasKind::Aligned:
    return 0.0;
  case BiasKind::Always:
    return 1.0;
  case BiasKind::Above50:
    return 0.75;
  case BiasKind::Equal50:
    return 0.5;
  case BiasKind::Below50:
    return 0.25;
  case BiasKind::Rare:
    return 1.0 / 16.0;
  }
  return 0.0;
}

uint64_t mdabt::workloads::biasPatternCount(BiasKind B, uint32_t Iters) {
  switch (B) {
  case BiasKind::Aligned:
    return 0;
  case BiasKind::Always:
    return Iters;
  case BiasKind::Above50: {
    // bump = ((i & 3) + 3) >> 2: misaligned for i % 4 in {1, 2, 3}.
    uint32_t Rem = Iters % 4;
    return 3ULL * (Iters / 4) + (Rem > 0 ? Rem - 1 : 0);
  }
  case BiasKind::Equal50:
    // bump = i & 1: misaligned for odd i.
    return Iters / 2;
  case BiasKind::Below50:
    // bump = (i & 3) == 3.
    return Iters / 4;
  case BiasKind::Rare:
    // bump = (i & 15) == 15.
    return Iters / 16;
  }
  return 0;
}

uint64_t SiteGroup::expectedMdas(uint32_t Rounds) const {
  uint32_t Active = OnsetRound >= Rounds ? 0 : Rounds - OnsetRound;
  return static_cast<uint64_t>(Sites) * Active *
         biasPatternCount(Bias, ItersPerRound);
}

uint64_t SiteGroup::expectedRefs(uint32_t Rounds) const {
  uint32_t Active = Rounds;
  if (GatedIters)
    Active = OnsetRound >= Rounds ? 0 : Rounds - OnsetRound;
  return static_cast<uint64_t>(Sites) * ItersPerRound * Active;
}

namespace {

// Register roles inside generated code.
constexpr uint8_t RBase = 0;   // eax: section base pointer
constexpr uint8_t RIter = 1;   // ecx: loop counter
constexpr uint8_t RVal = 2;    // edx: load destination / store value
constexpr uint8_t RAddr = 3;   // ebx: slot address, then biased base
constexpr uint8_t RBump = 5;   // ebp: per-iteration alignment bump
constexpr uint8_t RRound = 6;  // esi: round counter
constexpr uint8_t RTmp = 7;    // edi: bias scratch
constexpr uint8_t QVal = 0;    // q0: 8-byte load/store data

uint8_t scaleLog2(unsigned Size) {
  switch (Size) {
  case 1:
    return 0;
  case 2:
    return 1;
  case 4:
    return 2;
  case 8:
    return 3;
  }
  assert(false && "bad access size");
  return 0;
}

/// One emitted section: a slice of a group plus its data placement.
struct SectionPlan {
  const SiteGroup *Group;
  uint32_t Sites;
  uint32_t Stride;
  uint32_t SlotAddr;
  /// Iteration-limit slot for gated sections (0 = not gated).
  uint32_t GateSlotAddr;
  /// The value stored into the slot at build time.
  uint32_t InitBase;
  /// True when the base-pointer slot is never written at runtime, so
  /// the section can materialize the base as an immediate instead of
  /// loading the slot — making the group's alignment statically
  /// manifest (a real compiler would constant-fold it the same way).
  /// Late-onset groups keep the load: their slot bump at OnsetRound is
  /// exactly what makes them invisible to profiling, and it keeps them
  /// invisible to static analysis too.
  bool ConstantBase;
  ProgramBuilder::Label Entry;
};

/// Emit the per-iteration bump computation for a mixed-bias group into
/// RBump (clobbers RTmp).
void emitBiasBump(ProgramBuilder &B, BiasKind Bias) {
  switch (Bias) {
  case BiasKind::Equal50:
    // bump = i & 1
    B.movrr(RBump, RIter);
    B.andi(RBump, 1);
    break;
  case BiasKind::Above50:
    // bump = ((i & 3) + 3) >> 2  ->  {0,1,1,1}: 75% misaligned
    B.movrr(RBump, RIter);
    B.andi(RBump, 3);
    B.addi(RBump, 3);
    B.shri(RBump, 2);
    break;
  case BiasKind::Below50:
    // bump = (i & 3) == 3  ->  {0,0,0,1}: 25% misaligned
    B.movrr(RBump, RIter);
    B.andi(RBump, 3);
    B.movrr(RTmp, RBump);
    B.shri(RTmp, 1);
    B.andi(RBump, 1);
    B.and_(RBump, RTmp);
    break;
  case BiasKind::Rare:
    // bump = (i & 15) == 15: AND of the low four bits.
    B.movrr(RBump, RIter);
    B.andi(RBump, 15);
    B.movrr(RTmp, RBump);
    B.shri(RTmp, 1);
    B.and_(RBump, RTmp); // x & x>>1
    B.shri(RTmp, 1);
    B.and_(RBump, RTmp); // ... & x>>2
    B.shri(RTmp, 1);
    B.and_(RBump, RTmp); // ... & x>>3
    B.andi(RBump, 1);
    break;
  default:
    assert(false && "not a mixed bias");
  }
}

bool isMixedBias(BiasKind B) {
  return B == BiasKind::Equal50 || B == BiasKind::Above50 ||
         B == BiasKind::Below50 || B == BiasKind::Rare;
}

void emitSiteAccess(ProgramBuilder &B, unsigned Size, uint8_t BaseReg,
                    int32_t Disp, bool IsStore) {
  Mem M = memIdx(BaseReg, RIter, scaleLog2(Size), Disp);
  switch (Size) {
  case 2:
    if (IsStore)
      B.stw(M, RVal);
    else
      B.ldw(RVal, M);
    break;
  case 4:
    if (IsStore)
      B.stl(M, RVal);
    else
      B.ldl(RVal, M);
    break;
  case 8:
    if (IsStore)
      B.stq(M, QVal);
    else
      B.ldq(QVal, M);
    break;
  default:
    assert(false && "bad site size");
  }
}

} // namespace

GuestImage mdabt::workloads::buildProgram(const ProgramPlan &Plan,
                                          InputKind Input, LayoutKind Layout,
                                          double PaddingFactor) {
  assert(Plan.Rounds >= 1 && "a program needs at least one round");
  ProgramBuilder B(Plan.Name);
  RNG Rng(Plan.Seed);
  bool Aligned = Layout == LayoutKind::AlignedPadded;

  // ---- plan sections and lay out their data --------------------------------
  std::vector<SectionPlan> Sections;
  for (const SiteGroup &G : Plan.Groups) {
    assert((!isMixedBias(G.Bias) ||
            G.ItersPerRound >= (G.Bias == BiasKind::Rare ? 16u : 8u)) &&
           "mixed-bias groups need enough iterations for their pattern");
    uint32_t PerSection =
        G.SitesPerSection != 0 ? G.SitesPerSection : Plan.SitesPerSection;
    uint32_t Remaining = G.Sites;
    while (Remaining != 0) {
      uint32_t Sites = Remaining < PerSection ? Remaining : PerSection;
      Remaining -= Sites;

      uint64_t RawStride =
          static_cast<uint64_t>(G.ItersPerRound) * G.Size + 16;
      if (Aligned && PaddingFactor > 1.0)
        RawStride = static_cast<uint64_t>(
            static_cast<double>(RawStride) * PaddingFactor);
      uint32_t Stride = static_cast<uint32_t>((RawStride + 7) & ~7ULL);

      uint32_t DataStart =
          B.dataReserve(Stride * Sites, /*Align=*/8);

      // Initial base: misaligned from the start for Always-bias groups
      // with onset 0; ref-only groups only under the REF input; never
      // under the alignment-enforcing layout.
      uint32_t InitBase = DataStart;
      bool InitiallyMis = !Aligned && G.Bias == BiasKind::Always &&
                          (G.OnsetRound == 0 || G.GatedIters) &&
                          (!G.RefOnly || Input == InputKind::Ref);
      if (InitiallyMis)
        InitBase += 1;
      uint32_t Slot = B.dataU32(InitBase);

      uint32_t GateSlot = 0;
      if (G.GatedIters) {
        assert(G.Bias == BiasKind::Always && "gated groups must be Always");
        GateSlot = B.dataU32(G.OnsetRound == 0 ? G.ItersPerRound : 0);
      }

      // The onset prologue bumps the base slot at runtime only for
      // non-gated late-onset groups in the misaligning layout; every
      // other section's slot holds InitBase forever and the base can be
      // an immediate.  Ref-only groups must keep the load: their
      // InitBase differs between the TRAIN and REF inputs while their
      // code must be byte-identical across the two.
      bool SlotRuntimeWritten = !Aligned && !G.GatedIters &&
                                G.OnsetRound >= 1 &&
                                G.OnsetRound < Plan.Rounds;
      bool ConstantBase = !G.RefOnly && !SlotRuntimeWritten;

      Sections.push_back({&G, Sites, Stride, Slot, GateSlot, InitBase,
                          ConstantBase, B.newLabel()});
    }
  }

  // ---- program skeleton: the round loop -----------------------------------
  B.movri(RRound, 0);
  ProgramBuilder::Label RoundLoop = B.here();

  // Onset prologue.  Two kinds of round-triggered events:
  //  - base-pointer bumps for late-onset groups (what makes their MDAs
  //    invisible to early profiling) — suppressed in the aligned layout;
  //  - gate openings for gated sections (which run the same in every
  //    layout, so Fig. 1 compares equal work).
  for (const SectionPlan &S : Sections) {
    const SiteGroup &G = *S.Group;
    if (G.OnsetRound == 0 || G.OnsetRound >= Plan.Rounds)
      continue;
    if (G.GatedIters) {
      ProgramBuilder::Label Skip = B.newLabel();
      B.cmpi(RRound, static_cast<int32_t>(G.OnsetRound));
      B.jcc(Cond::Ne, Skip);
      B.movri(RAddr, static_cast<int32_t>(S.GateSlotAddr));
      B.movri(RBase, static_cast<int32_t>(G.ItersPerRound));
      B.stl(mem(RAddr, 0), RBase);
      B.bind(Skip);
      continue;
    }
    if (Aligned)
      continue;
    ProgramBuilder::Label Skip = B.newLabel();
    B.cmpi(RRound, static_cast<int32_t>(G.OnsetRound));
    B.jcc(Cond::Ne, Skip);
    B.movri(RAddr, static_cast<int32_t>(S.SlotAddr));
    B.ldl(RBase, mem(RAddr, 0));
    B.addi(RBase, 1);
    B.stl(mem(RAddr, 0), RBase);
    B.bind(Skip);
  }

  for (const SectionPlan &S : Sections)
    B.call(S.Entry);

  B.addi(RRound, 1);
  B.cmpi(RRound, static_cast<int32_t>(Plan.Rounds));
  B.jcc(Cond::B, RoundLoop);

  // Epilogue: fold observable state into the checksum.
  B.chk(RVal);
  B.qchk(QVal);
  B.chk(RBase);
  B.chk(RRound);
  B.halt();

  // ---- sections ------------------------------------------------------------
  for (const SectionPlan &S : Sections) {
    const SiteGroup &G = *S.Group;
    B.bind(S.Entry);
    if (S.ConstantBase) {
      B.movri(RBase, static_cast<int32_t>(S.InitBase));
    } else {
      B.movri(RAddr, static_cast<int32_t>(S.SlotAddr));
      B.ldl(RBase, mem(RAddr, 0));
    }
    B.movri(RVal, static_cast<int32_t>(Rng.next() & 0x7fffffff));
    if (G.Size == 8)
      B.qmovi(QVal, static_cast<int32_t>(Rng.next() & 0x7fffffff));
    B.movri(RIter, 0);

    // Gated sections run `limit` iterations, where the limit slot is 0
    // until the group's onset round.
    ProgramBuilder::Label Done = B.newLabel();
    if (G.GatedIters) {
      B.movri(RAddr, static_cast<int32_t>(S.GateSlotAddr));
      B.ldl(RTmp, mem(RAddr, 0));
      B.cmp(RIter, RTmp);
      B.jcc(Cond::Ae, Done);
    }

    ProgramBuilder::Label Loop = B.here();
    uint8_t BaseReg = RBase;
    if (!Aligned && isMixedBias(G.Bias)) {
      emitBiasBump(B, G.Bias);
      B.movrr(RAddr, RBase);
      B.add(RAddr, RBump);
      BaseReg = RAddr;
    }
    for (uint32_t J = 0; J != S.Sites; ++J) {
      bool IsStore =
          G.StoreEvery != 0 && (J % G.StoreEvery) == G.StoreEvery - 1;
      emitSiteAccess(B, G.Size, BaseReg,
                     static_cast<int32_t>(J * S.Stride), IsStore);
    }
    B.addi(RIter, 1);
    if (G.GatedIters) {
      B.cmp(RIter, RTmp);
      B.jcc(Cond::B, Loop);
    } else {
      B.cmpi(RIter, static_cast<int32_t>(G.ItersPerRound));
      B.jcc(Cond::B, Loop);
    }
    B.bind(Done);
    B.chk(RVal);
    if (G.Size == 8)
      B.qchk(QVal);
    B.ret();
  }

  return B.build();
}

// -- fusion-dense kernels ----------------------------------------------------
//
// Register roles (guest::RegSP == 4 is never touched):
//   r0 src base / seed, r1 dst base, r2 element index, r3/r5 data,
//   r6 inner counter, r7 round counter.

GuestImage mdabt::workloads::buildFusionMemcpyKernel(uint32_t Words,
                                                     uint32_t Rounds) {
  assert(Words >= 2 && Words % 2 == 0 && Rounds >= 1);
  ProgramBuilder B("fusion-memcpy");
  uint32_t Src = B.dataReserve(Words * 4 + 16, 8);
  uint32_t Dst = B.dataReserve(Words * 4 + 16, 8);
  // Deterministic non-zero source contents.
  for (uint32_t I = 0; I != Words; ++I)
    B.patchDataU32(Src + I * 4, 0x9e3779b9u * (I + 1));

  B.movri(0, static_cast<int32_t>(Src));
  B.movri(1, static_cast<int32_t>(Dst));
  B.movri(7, static_cast<int32_t>(Rounds));
  ProgramBuilder::Label Round = B.here();
  B.movri(2, 0);
  B.movri(6, static_cast<int32_t>(Words / 2));
  ProgramBuilder::Label Inner = B.here();
  // Two-word copy: load run and store run each share [base + r2*4 + d]
  // (SharedAddr), then a mov-op mix (MovOp) and a destination
  // read-modify-write (LdOpSt).
  B.ldl(3, memIdx(0, 2, 2, 0));
  B.ldl(5, memIdx(0, 2, 2, 4));
  B.stl(memIdx(1, 2, 2, 0), 3);
  B.stl(memIdx(1, 2, 2, 4), 5);
  B.movrr(3, 5);
  B.add(3, 6); // MovOp: fold the counter into the copied word
  B.chk(3);    // keep the fused result architecturally observable
  B.ldl(3, memIdx(1, 2, 2, 0));
  B.xori(3, 0x33);
  B.stl(memIdx(1, 2, 2, 0), 3);
  B.addi(2, 2);
  B.addi(6, -1); // ImmNeg
  B.cmpi(6, 0);
  B.jcc(Cond::Ne, Inner); // CmpBr0
  B.addi(7, -1);          // ImmNeg
  B.cmpi(7, 0);
  B.jcc(Cond::Ne, Round);
  B.chk(3);
  B.chk(5);
  B.halt();
  return B.build();
}

GuestImage mdabt::workloads::buildFusionMemsetKernel(uint32_t Words,
                                                     uint32_t Rounds) {
  assert(Words >= 4 && Words % 4 == 0 && Rounds >= 1);
  ProgramBuilder B("fusion-memset");
  uint32_t Dst = B.dataReserve(Words * 4 + 16, 8);
  B.movri(0, 0x01020304); // evolving fill seed
  B.movri(1, static_cast<int32_t>(Dst));
  B.movri(7, static_cast<int32_t>(Rounds));
  ProgramBuilder::Label Round = B.here();
  B.movri(2, 0);
  B.movri(6, static_cast<int32_t>(Words / 4));
  ProgramBuilder::Label Inner = B.here();
  // Derive two fill values from the seed via mov-op chains (MovOp and
  // MovOpI), then a four-store run at one shared indexed address.
  B.movrr(3, 0);
  B.xor_(3, 6); // MovOp: xor seed with the counter
  B.movrr(5, 3);
  B.addi(5, 7); // MovOpI
  B.stl(memIdx(1, 2, 2, 0), 3);
  B.stl(memIdx(1, 2, 2, 4), 5);
  B.stl(memIdx(1, 2, 2, 8), 3);
  B.stl(memIdx(1, 2, 2, 12), 5);
  B.addi(2, 4);
  B.addi(6, -1); // ImmNeg
  B.cmpi(6, 0);
  B.jcc(Cond::Ne, Inner); // CmpBr0
  B.addi(0, -3);          // evolve the seed (ImmNeg)
  B.addi(7, -1);
  B.cmpi(7, 0);
  B.jcc(Cond::Ne, Round);
  B.chk(0);
  B.chk(3);
  B.chk(5);
  B.halt();
  return B.build();
}

// -- dispatch-bound kernels --------------------------------------------------

GuestImage mdabt::workloads::buildCallRetKernel(uint32_t Iters) {
  ProgramBuilder B("k.callret");
  uint32_t Buf = B.dataReserve(64, 8);
  ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Loop = B.here();
  B.call(F);
  B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  B.bind(F);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.ret();
  return B.build();
}

GuestImage mdabt::workloads::buildThreeBlockLoopKernel(uint32_t Iters) {
  ProgramBuilder B("k.loop3");
  uint32_t Buf = B.dataReserve(64, 8);
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf));
  B.movri(2, 0);
  ProgramBuilder::Label Odd = B.newLabel(), Join = B.newLabel();
  ProgramBuilder::Label Loop = B.here();
  B.movrr(3, 1);
  B.andi(3, 1);
  B.cmpi(3, 0);
  B.jcc(Cond::Ne, Odd);
  B.stl(mem(0, 0), 1);
  B.ldl(3, mem(0, 0));
  B.add(2, 3);
  B.jmp(Join);
  B.bind(Odd);
  B.stl(mem(0, 4), 2);
  B.ldl(3, mem(0, 4));
  B.add(2, 3);
  B.bind(Join);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  return B.build();
}
