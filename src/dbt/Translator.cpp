//===- dbt/Translator.cpp -------------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/Translator.h"

#include "dbt/FusionRules.h"
#include "host/HostAssembler.h"
#include "host/MdaSequences.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

/// Host memory opcode implementing a guest memory opcode.
HostOp hostMemOp(guest::Opcode Op) {
  switch (Op) {
  case guest::Opcode::Ldb:
    return HostOp::Ldbu;
  case guest::Opcode::Ldw:
    return HostOp::Ldwu;
  case guest::Opcode::Ldl:
    return HostOp::Ldl;
  case guest::Opcode::Ldq:
    return HostOp::Ldq;
  case guest::Opcode::Stb:
    return HostOp::Stb;
  case guest::Opcode::Stw:
    return HostOp::Stw;
  case guest::Opcode::Stl:
    return HostOp::Stl;
  case guest::Opcode::Stq:
    return HostOp::Stq;
  default:
    assert(false && "not a guest memory opcode");
    return HostOp::Ldl;
  }
}

/// Compare opcode + branch-on-nonzero flag for a guest condition.
struct CondLowering {
  HostOp CmpOp;
  bool BranchIfTrue; ///< branch when the compare result is nonzero
};

CondLowering lowerCond(guest::Cond C) {
  switch (C) {
  case guest::Cond::Eq:
    return {HostOp::Cmpeq, true};
  case guest::Cond::Ne:
    return {HostOp::Cmpeq, false};
  case guest::Cond::Lt:
    return {HostOp::Cmplt32, true};
  case guest::Cond::Ge:
    return {HostOp::Cmplt32, false};
  case guest::Cond::Le:
    return {HostOp::Cmple32, true};
  case guest::Cond::Gt:
    return {HostOp::Cmple32, false};
  case guest::Cond::B:
    return {HostOp::Cmpult, true};
  case guest::Cond::Ae:
    return {HostOp::Cmpult, false};
  }
  assert(false && "bad condition");
  return {HostOp::Cmpeq, true};
}

/// Host ALU opcode for a guest reg-reg / reg-imm ALU op (the fusable
/// slot sets of dbt/FusionRules.h).
HostOp aluOp(guest::Opcode Op) {
  switch (Op) {
  case guest::Opcode::Add:
  case guest::Opcode::AddI:
    return HostOp::Addl;
  case guest::Opcode::Sub:
  case guest::Opcode::SubI:
    return HostOp::Subl;
  case guest::Opcode::And:
  case guest::Opcode::AndI:
    return HostOp::And;
  case guest::Opcode::Or:
  case guest::Opcode::OrI:
    return HostOp::Bis;
  case guest::Opcode::Xor:
  case guest::Opcode::XorI:
    return HostOp::Xor;
  case guest::Opcode::Mul:
  case guest::Opcode::MulI:
    return HostOp::Mull;
  default:
    assert(false && "not a simple ALU op");
    return HostOp::Addl;
  }
}

/// Emit `Dst = Src <op> Imm` choosing the literal form when possible.
void emitAluImm(HostAssembler &Asm, HostOp Op, uint8_t Src, int32_t Imm,
                uint8_t Dst) {
  if (Imm >= 0 && Imm <= 255) {
    Asm.opl(Op, Src, static_cast<uint8_t>(Imm), Dst);
    return;
  }
  Asm.materialize32(RegScratch1, static_cast<uint32_t>(Imm));
  Asm.op(Op, Src, RegScratch1, Dst);
}

/// Host register holding the data operand of guest memory op \p I.
uint8_t dataReg(const guest::GuestInst &I) {
  return I.Op == guest::Opcode::Ldq || I.Op == guest::Opcode::Stq
             ? hostQ(I.Reg1)
             : hostGpr(I.Reg1);
}

/// Largest displacement the translator leaves on a memory operand so
/// that Disp + 7 still fits disp16 (required by the MDA sequences and
/// by exception-handler stub generation).
constexpr int32_t MaxMemDisp = 32767 - 8;

/// Materialize the effective address so that a single (Base, Disp)
/// memory operand expresses it.  May emit address arithmetic into the
/// scratch registers.  Guest addresses wrap at 2^32, hence Addl.
struct AddrOperand {
  uint8_t Base;
  int32_t Disp;
};

AddrOperand computeAddress(HostAssembler &Asm, const guest::GuestInst &I) {
  uint8_t Base = hostGpr(I.Reg2);
  int32_t Disp = I.Disp;
  if (I.HasIndex) {
    uint8_t Idx = hostGpr(I.IndexReg);
    if (I.Scale != 0) {
      Asm.opl(HostOp::Sll, Idx, I.Scale, RegScratch0);
      Asm.op(HostOp::Addl, Base, RegScratch0, RegScratch0);
    } else {
      Asm.op(HostOp::Addl, Base, Idx, RegScratch0);
    }
    Base = RegScratch0;
  }
  if (Disp < -32768 || Disp > MaxMemDisp) {
    Asm.materialize32(RegScratch1, static_cast<uint32_t>(Disp));
    Asm.op(HostOp::Addl, Base, RegScratch1, RegScratch0);
    Base = RegScratch0;
    Disp = 0;
  }
  return {Base, Disp};
}

/// The multi-version alignment check (paper Fig. 8, left) on the
/// address \p A of a \p Size-byte access: branches to the returned
/// label when the access is misaligned.  When the displacement is a
/// multiple of the access size it cannot change alignment, so the check
/// tests the base register directly (the paper's "and Raddr, #3, Rtemp"
/// form).
HostAssembler::Label emitAlignmentCheck(HostAssembler &Asm, AddrOperand A,
                                        unsigned Size) {
  uint8_t CheckReg = A.Base;
  if (A.Disp % static_cast<int32_t>(Size) != 0) {
    Asm.lda(RegMvT0, A.Disp, A.Base);
    CheckReg = RegMvT0;
  }
  Asm.opl(HostOp::And, CheckReg, static_cast<uint8_t>(Size - 1), RegMvT1);
  HostAssembler::Label Misaligned = Asm.newLabel();
  Asm.bne(RegMvT1, Misaligned);
  return Misaligned;
}

/// Direct exit to \p TargetPc: materialize it and leave through a
/// chainable Srv Exit.
void emitDirectExit(HostAssembler &Asm, CachedTranslation &Out,
                    uint32_t TargetPc) {
  Asm.materialize32(RegExitPc, TargetPc);
  uint32_t W = Asm.srv(SrvFunc::Exit);
  Out.Exits.push_back({W, TargetPc, /*Direct=*/1});
}

/// How multi-version plans are rendered in the range being emitted:
/// per-instruction (Fig. 8 left), or one of the two block-granularity
/// copies (plain ops in the aligned copy — still exception-handler
/// guarded — and inline sequences in the misaligned copy).
enum class MvMode { PerInst, Plain, Sequences };

/// One payload under construction.  The assembler writes a private
/// arena whose word 0 is the entry, so every word index it returns is
/// already entry-relative; finish() resolves labels and folds the words
/// and the plan record into the payload.
struct PayloadBuilder {
  CodeSpace Code;
  HostAssembler Asm{Code};
  CachedTranslation Out;
  /// Policy-intent plan per guest PC.  An unrolled trace plans its
  /// repeated constituents again; the last plan wins.
  std::map<uint32_t, MemPlan> Plans;

  CachedTranslation finish() {
    Asm.finish();
    Out.Words.assign(Code.data(), Code.data() + Code.size());
    std::sort(Out.MemWordToGuestPc.begin(), Out.MemWordToGuestPc.end());
    std::sort(Out.StoreResume.begin(), Out.StoreResume.end(),
              [](const CachedTranslation::RelResume &A,
                 const CachedTranslation::RelResume &B) {
                return A.Word < B.Word;
              });
    for (const auto &KV : Plans)
      Out.PlanByPc.push_back({KV.first, static_cast<uint8_t>(KV.second)});
    return std::move(Out);
  }
};

/// Emits the body of one guest block into the payload being built.
/// Shared between plain block translation (Translator::translate) and
/// superblock re-emission (Translator::translateTrace); in trace mode
/// (Continues == true) control flow that stays on the trace falls
/// through to the next constituent and off-trace edges branch to shared
/// side-exit labels instead of materializing an exit inline.
struct BodyEmitter {
  BodyEmitter(PayloadBuilder &B, const GuestBlock &Block,
              const Translator::PlanFn &Plan, unsigned IcWays,
              uint32_t FusionMask)
      : Asm(B.Asm), Out(B.Out), Plans(B.Plans), Block(Block), Plan(Plan),
        IcWays(IcWays), Matcher(FusionMask) {}

  HostAssembler &Asm;
  CachedTranslation &Out;
  std::map<uint32_t, MemPlan> &Plans;
  const GuestBlock &Block;
  const Translator::PlanFn &Plan;
  /// Inline-cache ways to emit before each indirect exit (0 = none).
  unsigned IcWays;
  /// Enabled peephole fusion rules (dbt/FusionRules.h).
  FusionMatcher Matcher;
  /// Raw policy-intent plans memoized per instruction index.  Fusion
  /// matching peeks at plans ahead of emission; the memo keeps the
  /// planning chain (analysis verdicts, policy state, the engine's
  /// elide counters) consulted exactly once per site.  Only populated
  /// when fusion is enabled, so the fusion-off translator consults the
  /// chain exactly as it always has.
  std::unordered_map<size_t, MemPlan> PlanMemo;
  /// Trace mode: this block is a non-last trace constituent and
  /// execution reaching NextPc must fall through into the next one.
  bool Continues = false;
  uint32_t NextPc = 0;
  /// Off-trace exit labels, shared across the trace's constituents so
  /// each unique target gets exactly one side-exit stub.
  std::map<uint32_t, HostAssembler::Label> *SideLabels = nullptr;

  /// Label for the off-trace side exit to guest PC \p Pc.
  HostAssembler::Label side(uint32_t Pc) {
    assert(SideLabels && "side exit outside trace mode");
    auto It = SideLabels->find(Pc);
    if (It != SideLabels->end())
      return It->second;
    HostAssembler::Label L = Asm.newLabel();
    SideLabels->emplace(Pc, L);
    return L;
  }

  /// Direct exit to \p TargetPc.  In trace mode an on-trace target
  /// falls through and an off-trace target branches to its side exit;
  /// otherwise the exit is emitted inline.
  void emitExit(uint32_t TargetPc) {
    if (!Continues)
      emitDirectExit(Asm, Out, TargetPc);
    else if (TargetPc != NextPc)
      Asm.br(side(TargetPc));
  }

  /// The two-way exit of the guest Jcc \p J at \p JPc, deciding on host
  /// register \p R: the guest branch is taken when R is nonzero if \p
  /// TakenIfNonzero, else when R is zero.  In trace mode the on-trace
  /// arm falls through to the next constituent and the off-trace arm
  /// branches to a side exit; otherwise each arm exits inline.  Returns
  /// the end of the branch core: the inline exits after it are
  /// monitor-patched (chaining), so a fused site does not cover them.
  uint32_t emitTwoWayExit(uint8_t R, bool TakenIfNonzero,
                          const guest::GuestInst &J, uint32_t JPc) {
    uint32_t TakenPc = J.branchTarget(JPc);
    uint32_t FallPc = J.nextPc(JPc);
    auto BranchIf = [&](bool Nonzero, HostAssembler::Label L) {
      if (Nonzero)
        Asm.bne(R, L);
      else
        Asm.beq(R, L);
    };
    if (!Continues) {
      HostAssembler::Label Taken = Asm.newLabel();
      BranchIf(TakenIfNonzero, Taken);
      uint32_t CoreEnd = Asm.pos();
      emitExit(FallPc);
      Asm.bind(Taken);
      emitExit(TakenPc);
      return CoreEnd;
    }
    if (TakenPc == NextPc) {
      BranchIf(!TakenIfNonzero, side(FallPc));
    } else {
      // When neither arm continues the trace (the walker should never
      // build this), both arms become side exits, defensively.
      BranchIf(TakenIfNonzero, side(TakenPc));
      if (FallPc != NextPc)
        Asm.br(side(FallPc));
    }
    return Asm.pos();
  }

  /// Indirect exit: RegExitPc already holds the target.  When IcWays is
  /// nonzero, disabled inline-cache ways (see IcWayWords) are emitted
  /// ahead of the fallback Srv Exit for the monitor to fill.
  void emitIndirectExit() {
    CachedTranslation::RelIcSite Site;
    for (unsigned N = 0; N != IcWays; ++N) {
      Site.WayBegins.push_back(Asm.pos());
      for (uint32_t K = 0; K != IcWayWords; ++K)
        Asm.emitWord(Translator::icWayDisabledWord(K));
    }
    uint32_t W = Asm.srv(SrvFunc::Exit);
    Out.Exits.push_back({W, 0, /*Direct=*/0});
    if (IcWays != 0) {
      Site.SrvWord = W;
      Out.IcSites.push_back(std::move(Site));
    }
  }

  /// Record episode-stop metadata for a guest store whose lowering
  /// emitted host words [FirstWord, Asm.pos()): if executing any of
  /// them rewrites code backing this very translation, the engine
  /// stops the episode at Asm.pos() — the first word after the
  /// instruction — and redispatches at \p ResumePc.  Safe to key every
  /// word of the range: the barrier only consults the map for the word
  /// that actually performed the store.
  void recordStoreResume(uint32_t FirstWord, uint32_t ResumePc) {
    uint32_t End = Asm.pos();
    for (uint32_t W = FirstWord; W != End; ++W)
      Out.StoreResume.push_back({W, End, ResumePc});
  }

  /// Plan for the memory instruction at \p Idx under MV rendering mode
  /// \p Mode.  Records the policy-intent plan (the payload's PlanByPc)
  /// so superblock re-emission can reproduce it without the policy.
  MemPlan planFor(size_t Idx, MvMode Mode) {
    const guest::GuestInst &Inst = Block.Insts[Idx];
    if (!guest::isMemoryOp(Inst.Op) || guest::accessSize(Inst.Op) < 2)
      return MemPlan::Normal;
    MemPlan P;
    auto It = PlanMemo.find(Idx);
    if (It != PlanMemo.end()) {
      P = It->second;
    } else {
      P = Plan(Block.InstPcs[Idx], Inst);
      if (Matcher.enabled())
        PlanMemo.emplace(Idx, P);
      Plans[Block.InstPcs[Idx]] = P;
    }
    if (P == MemPlan::MultiVersion) {
      if (Mode == MvMode::Plain)
        return MemPlan::Normal;
      if (Mode == MvMode::Sequences)
        return MemPlan::Inline;
    }
    return P;
  }

  /// Emit the single host memory op of the guest memory instruction at
  /// \p Idx on operand (\p Base, \p Disp).  \p Guarded registers it as a
  /// potential fault site (byte ops never trap); a store also records
  /// its episode stop.
  void emitPlainMem(size_t Idx, uint8_t Base, int32_t Disp, bool Guarded) {
    const guest::GuestInst &I = Block.Insts[Idx];
    uint32_t Pc = Block.InstPcs[Idx];
    uint32_t W = Asm.mem(hostMemOp(I.Op), dataReg(I), Disp, Base);
    if (Guarded && guest::accessSize(I.Op) >= 2)
      Out.MemWordToGuestPc.push_back({W, Pc});
    if (guest::isStore(I.Op))
      recordStoreResume(W, I.nextPc(Pc));
  }

  /// Emit the inline MDA sequence of the guest memory instruction at
  /// \p Idx on operand \p A.
  void emitMdaSequence(size_t Idx, AddrOperand A) {
    const guest::GuestInst &I = Block.Insts[Idx];
    unsigned Size = guest::accessSize(I.Op);
    if (!guest::isStore(I.Op)) {
      emitMdaLoad(Asm, Size, dataReg(I), A.Base, A.Disp);
      return;
    }
    uint32_t S = Asm.pos();
    emitMdaStore(Asm, Size, dataReg(I), A.Base, A.Disp);
    recordStoreResume(S, I.nextPc(Block.InstPcs[Idx]));
  }

  /// Record one fused sequence whose core words are [Begin, End).  The
  /// word values themselves are the payload's, after label resolution.
  void recordFused(const FusionMatch &M, size_t Idx, uint32_t Begin,
                   uint32_t End) {
    Out.FusedSites.push_back({static_cast<uint8_t>(M.Rule),
                              static_cast<uint8_t>(M.Length), Begin, End,
                              Block.InstPcs[Idx], M.SavedWords});
  }

  /// Lowering of the simple GPR ALU ops, plain or inside a fused window
  /// (the FusionRules slot sets; excludes the RegScratch0-clobbering
  /// Sar/SarI, since a fused shared address lives there).
  void emitSimpleAlu(const guest::GuestInst &I) {
    uint8_t R = hostGpr(I.Reg1);
    switch (I.Op) {
    case guest::Opcode::Add:
    case guest::Opcode::Sub:
    case guest::Opcode::And:
    case guest::Opcode::Or:
    case guest::Opcode::Xor:
    case guest::Opcode::Mul:
      Asm.op(aluOp(I.Op), R, hostGpr(I.Reg2), R);
      break;
    case guest::Opcode::ShlI:
      Asm.opl(HostOp::Sll, R, static_cast<uint8_t>(I.Imm & 31), R);
      Asm.op(HostOp::Zextl, RegZero, R, R);
      break;
    case guest::Opcode::ShrI:
      Asm.opl(HostOp::Srl, R, static_cast<uint8_t>(I.Imm & 31), R);
      break;
    default:
      emitAluImm(Asm, aluOp(I.Op), R, I.Imm, R);
      break;
    }
  }

  /// Emit the fused lowering for match \p M starting at \p Idx.  Every
  /// covered memory site keeps its own MemWordToGuestPc / StoreResume
  /// registration, so stub patching, SMC episode stops and fault
  /// attribution behave exactly as in the unfused rendering.
  void emitFused(const FusionMatch &M, size_t Idx, MvMode Mode) {
    uint32_t Begin = Asm.pos();
    const guest::GuestInst &I0 = Block.Insts[Idx];
    switch (M.Rule) {
    case FusionRuleId::MovOp: {
      const guest::GuestInst &A = Block.Insts[Idx + 1];
      Asm.op(aluOp(A.Op), hostGpr(I0.Reg2), hostGpr(A.Reg2),
             hostGpr(A.Reg1));
      break;
    }
    case FusionRuleId::MovOpI: {
      const guest::GuestInst &A = Block.Insts[Idx + 1];
      Asm.opl(aluOp(A.Op), hostGpr(I0.Reg2), static_cast<uint8_t>(A.Imm),
              hostGpr(A.Reg1));
      break;
    }
    case FusionRuleId::ImmNeg:
      Asm.opl(I0.Op == guest::Opcode::AddI ? HostOp::Subl : HostOp::Addl,
              hostGpr(I0.Reg1), static_cast<uint8_t>(-I0.Imm),
              hostGpr(I0.Reg1));
      break;
    case FusionRuleId::CmpBr0: {
      // Eq is taken when r == 0, Ne when r != 0; the constraint admits
      // only these (guest GPRs are zero-extended, never negative, so
      // orderings against 0 do not reduce to a register test).
      const guest::GuestInst &J = Block.Insts[Idx + 1];
      recordFused(M, Idx, Begin,
                  emitTwoWayExit(hostGpr(I0.Reg1), J.CC == guest::Cond::Ne,
                                 J, Block.InstPcs[Idx + 1]));
      return;
    }
    case FusionRuleId::LdOpSt: {
      AddrOperand A = computeAddress(Asm, I0);
      emitPlainMem(Idx, A.Base, A.Disp,
                   planFor(Idx, Mode) != MemPlan::Elide);
      emitSimpleAlu(Block.Insts[Idx + 1]);
      emitPlainMem(Idx + 2, A.Base, A.Disp,
                   planFor(Idx + 2, Mode) != MemPlan::Elide);
      break;
    }
    case FusionRuleId::SharedAddr:
      // One base + index*scale computation shared by the whole run
      // (every member's displacement fits its memory operand, so none
      // is folded in); per-member displacements ride on the operands.
      computeAddress(Asm, I0);
      for (size_t K = 0; K != M.Length; ++K)
        emitPlainMem(Idx + K, RegScratch0, Block.Insts[Idx + K].Disp,
                     planFor(Idx + K, Mode) != MemPlan::Elide);
      break;
    }
    recordFused(M, Idx, Begin, Asm.pos());
  }

  void emitRange(size_t From, size_t To, MvMode Mode) {
  for (size_t Idx = From; Idx != To; ++Idx) {
    const guest::GuestInst &I = Block.Insts[Idx];
    uint32_t Pc = Block.InstPcs[Idx];

    if (Matcher.enabled()) {
      FusionMatch M;
      auto PlanAt = [&](size_t J) { return planFor(J, Mode); };
      if (Matcher.match(Block, Idx, To, PlanAt, M)) {
        emitFused(M, Idx, Mode);
        Idx += M.Length - 1;
        continue;
      }
    }

    switch (I.Op) {
    case guest::Opcode::Nop:
      break;

    case guest::Opcode::Halt:
      Asm.srv(SrvFunc::Halt);
      break;

    case guest::Opcode::Chk:
    case guest::Opcode::QChk:
      Asm.opl(HostOp::Mulq, RegChecksum, 31, RegChecksum);
      Asm.op(HostOp::Addq, RegChecksum,
             I.Op == guest::Opcode::Chk ? hostGpr(I.Reg1) : hostQ(I.Reg1),
             RegChecksum);
      break;

    case guest::Opcode::Ldb:
    case guest::Opcode::Ldw:
    case guest::Opcode::Ldl:
    case guest::Opcode::Ldq:
    case guest::Opcode::Stb:
    case guest::Opcode::Stw:
    case guest::Opcode::Stl:
    case guest::Opcode::Stq: {
      AddrOperand A = computeAddress(Asm, I);
      MemPlan P = planFor(Idx, Mode);
      if (P == MemPlan::Normal || P == MemPlan::Elide) {
        // An elided (provably-aligned) op is not registered as a fault
        // site: it can never trap, so the fault path must never be able
        // to resolve it.
        emitPlainMem(Idx, A.Base, A.Disp, P != MemPlan::Elide);
      } else if (P == MemPlan::Inline) {
        emitMdaSequence(Idx, A);
      } else {
        // Multi-version code (paper Fig. 8, left): an alignment check
        // selecting between the plain op and the MDA sequence.
        HostAssembler::Label Mda =
            emitAlignmentCheck(Asm, A, guest::accessSize(I.Op));
        HostAssembler::Label End = Asm.newLabel();
        // Provably aligned (the check routed misalignment away), so not
        // a fault site; a store's episode stops at the br below.
        emitPlainMem(Idx, A.Base, A.Disp, /*Guarded=*/false);
        Asm.br(End);
        Asm.bind(Mda);
        emitMdaSequence(Idx, A);
        Asm.bind(End);
      }
      break;
    }

    case guest::Opcode::Lea: {
      AddrOperand A = computeAddress(Asm, I);
      Asm.lda(hostGpr(I.Reg1), A.Disp, A.Base);
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;
    }

    case guest::Opcode::MovRR:
      Asm.mov(hostGpr(I.Reg2), hostGpr(I.Reg1));
      break;
    case guest::Opcode::Add:
    case guest::Opcode::Sub:
    case guest::Opcode::And:
    case guest::Opcode::Or:
    case guest::Opcode::Xor:
    case guest::Opcode::Mul:
    case guest::Opcode::AddI:
    case guest::Opcode::SubI:
    case guest::Opcode::AndI:
    case guest::Opcode::OrI:
    case guest::Opcode::XorI:
    case guest::Opcode::MulI:
    case guest::Opcode::ShlI:
    case guest::Opcode::ShrI:
      emitSimpleAlu(I);
      break;
    case guest::Opcode::Shl:
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Sll, hostGpr(I.Reg1), RegScratch1, hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;
    case guest::Opcode::Shr:
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Srl, hostGpr(I.Reg1), RegScratch1, hostGpr(I.Reg1));
      break;
    case guest::Opcode::Sar:
      Asm.op(HostOp::Sextl, RegZero, hostGpr(I.Reg1), RegScratch0);
      Asm.opl(HostOp::And, hostGpr(I.Reg2), 31, RegScratch1);
      Asm.op(HostOp::Sra, RegScratch0, RegScratch1, hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;

    case guest::Opcode::MovRI:
      Asm.materialize32(hostGpr(I.Reg1), static_cast<uint32_t>(I.Imm));
      break;
    case guest::Opcode::SarI:
      Asm.op(HostOp::Sextl, RegZero, hostGpr(I.Reg1), RegScratch0);
      Asm.opl(HostOp::Sra, RegScratch0, static_cast<uint8_t>(I.Imm & 31),
              hostGpr(I.Reg1));
      Asm.op(HostOp::Zextl, RegZero, hostGpr(I.Reg1), hostGpr(I.Reg1));
      break;

    case guest::Opcode::Cmp:
    case guest::Opcode::CmpI: {
      // Fused with the following Jcc; a compare not followed by Jcc is
      // dead by the ISA's structural rule.
      if (Idx + 1 >= Block.size() ||
          Block.Insts[Idx + 1].Op != guest::Opcode::Jcc)
        break;
      const guest::GuestInst &J = Block.Insts[Idx + 1];
      CondLowering L = lowerCond(J.CC);
      if (I.Op == guest::Opcode::Cmp)
        Asm.op(L.CmpOp, hostGpr(I.Reg1), hostGpr(I.Reg2), RegScratch2);
      else
        emitAluImm(Asm, L.CmpOp, hostGpr(I.Reg1), I.Imm, RegScratch2);
      emitTwoWayExit(RegScratch2, L.BranchIfTrue, J, Block.InstPcs[Idx + 1]);
      ++Idx; // consume the Jcc
      break;
    }

    case guest::Opcode::Jcc:
      assert(false && "Jcc without preceding Cmp (assembler enforces)");
      break;

    case guest::Opcode::QMovRR:
      Asm.mov(hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QMovI:
      Asm.materializeSext32(hostQ(I.Reg1), I.Imm);
      break;
    case guest::Opcode::QAdd:
      Asm.op(HostOp::Addq, hostQ(I.Reg1), hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QAddI:
      if (I.Imm >= 0 && I.Imm <= 255) {
        Asm.opl(HostOp::Addq, hostQ(I.Reg1), static_cast<uint8_t>(I.Imm),
                hostQ(I.Reg1));
      } else {
        Asm.materializeSext32(RegScratch1, I.Imm);
        Asm.op(HostOp::Addq, hostQ(I.Reg1), RegScratch1, hostQ(I.Reg1));
      }
      break;
    case guest::Opcode::QXor:
      Asm.op(HostOp::Xor, hostQ(I.Reg1), hostQ(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::GToQ:
      Asm.mov(hostGpr(I.Reg2), hostQ(I.Reg1));
      break;
    case guest::Opcode::QToG:
      Asm.op(HostOp::Zextl, RegZero, hostQ(I.Reg2), hostGpr(I.Reg1));
      break;

    case guest::Opcode::Jmp:
      emitExit(I.branchTarget(Pc));
      break;

    case guest::Opcode::Call: {
      uint32_t RetPc = I.nextPc(Pc);
      uint8_t Sp = hostGpr(guest::RegSP);
      Asm.opl(HostOp::Subl, Sp, 4, Sp);
      Asm.materialize32(RegScratch0, RetPc);
      uint32_t W = Asm.mem(HostOp::Stl, RegScratch0, 0, Sp);
      Out.MemWordToGuestPc.push_back({W, Pc});
      // If the return-address push rewrites watched code (pathological
      // but legal), resume at the callee: the push has architecturally
      // completed and the call transfers control next.
      recordStoreResume(W, I.branchTarget(Pc));
      emitExit(I.branchTarget(Pc));
      break;
    }

    case guest::Opcode::Ret: {
      uint8_t Sp = hostGpr(guest::RegSP);
      uint32_t W = Asm.mem(HostOp::Ldl, RegScratch0, 0, Sp);
      Out.MemWordToGuestPc.push_back({W, Pc});
      Asm.opl(HostOp::Addl, Sp, 4, Sp);
      Asm.mov(RegScratch0, RegExitPc);
      emitIndirectExit();
      break;
    }

    case guest::Opcode::JmpR:
      Asm.mov(hostGpr(I.Reg1), RegExitPc);
      emitIndirectExit();
      break;
    }
  }
  }
};

} // namespace

CachedTranslation Translator::translate(const GuestBlock &Block,
                                        const PlanFn &Plan,
                                        const TranslationOpts &Opts) {
  PayloadBuilder B;
  HostAssembler &Asm = B.Asm;
  B.Out.GuestPc = Block.StartPc;
  B.Out.GuestInsts = static_cast<uint32_t>(Block.size());
  B.Out.GuestRanges.push_back({Block.StartPc, Block.endPc()});

  BodyEmitter E(B, Block, Plan, Opts.IcWays, Opts.FusionMask);

  // Block-granularity multi-version (paper section IV-D): find the
  // first multi-version site; one alignment check there selects between
  // a plain-ops copy and an inline-sequences copy of the block tail.
  // The plain copy's sites stay exception-handler guarded, so a site
  // that defies the shared-alignment-pattern assumption still executes
  // correctly (it traps and gets patched).
  size_t Split = Block.size();
  if (Opts.BlockMultiVersion) {
    for (size_t Idx = 0; Idx != Block.size(); ++Idx) {
      if (E.planFor(Idx, MvMode::PerInst) == MemPlan::MultiVersion) {
        Split = Idx;
        break;
      }
    }
  }

  E.emitRange(0, Split, MvMode::PerInst);
  if (Split != Block.size()) {
    // The version check on the split site's address.
    const guest::GuestInst &I = Block.Insts[Split];
    HostAssembler::Label MisCopy = emitAlignmentCheck(
        Asm, computeAddress(Asm, I), guest::accessSize(I.Op));
    E.emitRange(Split, Block.size(), MvMode::Plain);
    Asm.bind(MisCopy);
    E.emitRange(Split, Block.size(), MvMode::Sequences);
  }
  return B.finish();
}

CachedTranslation
Translator::translateTrace(const std::vector<GuestBlock> &Blocks,
                           const PlanFn &Plan, const TranslationOpts &Opts) {
  assert(Blocks.size() >= 2 && "a trace spans at least two blocks");
  PayloadBuilder B;
  HostAssembler &Asm = B.Asm;
  CachedTranslation &P = B.Out;
  P.GuestPc = Blocks.front().StartPc;
  P.IsTrace = 1;

  // One side-exit stub per unique off-trace target, shared by every
  // constituent (bound after the straight-line body).
  std::map<uint32_t, HostAssembler::Label> SideLabels;

  for (size_t BI = 0; BI != Blocks.size(); ++BI) {
    const GuestBlock &Blk = Blocks[BI];
    P.Constituents.push_back(Blk.StartPc);
    P.GuestInsts += static_cast<uint32_t>(Blk.size());
    // Guest ranges deduplicated: loop unrolling repeats constituents.
    std::pair<uint32_t, uint32_t> Range{Blk.StartPc, Blk.endPc()};
    if (std::find(P.GuestRanges.begin(), P.GuestRanges.end(), Range) ==
        P.GuestRanges.end())
      P.GuestRanges.push_back(Range);
    BodyEmitter E(B, Blk, Plan, Opts.IcWays, Opts.FusionMask);
    if (BI + 1 != Blocks.size()) {
      E.Continues = true;
      E.NextPc = Blocks[BI + 1].StartPc;
      E.SideLabels = &SideLabels;
    }
    // Constituents render multi-version sites per-instruction even when
    // the policy asked for block granularity: semantically equivalent
    // (both copies stay handler-guarded) and it keeps the straight-line
    // body free of block-tail duplication.
    E.emitRange(0, Blk.size(), MvMode::PerInst);
  }

  for (auto &KV : SideLabels) {
    Asm.bind(KV.second);
    emitDirectExit(Asm, P, KV.first);
  }
  return B.finish();
}

Translator::StubInfo Translator::emitStub(CodeSpace &Code,
                                          const HostInst &Faulting,
                                          uint32_t FaultWord,
                                          uint32_t CounterAddr,
                                          uint32_t MailboxAddr,
                                          uint32_t Threshold) {
  assert(accessesMemory(Faulting.Op) && alignmentOf(Faulting.Op) > 1 &&
         "stub requested for a non-trapping instruction");
  assert(Threshold <= 255 && "threshold must fit an operate literal");
  HostAssembler Asm(Code);
  StubInfo S;
  S.Entry = Asm.pos();
  unsigned Size = hostAccessSize(Faulting.Op);

  if (Threshold != 0) {
    // Alignment check on the current address (paper Fig. 8, right side:
    // "instructions to collect runtime information").
    Asm.lda(RegMdaT2, Faulting.Disp, Faulting.Rb);
    Asm.opl(HostOp::And, RegMdaT2, static_cast<uint8_t>(Size - 1),
            RegMdaT0);
    HostAssembler::Label RunSeq = Asm.newLabel();
    Asm.bne(RegMdaT0, RunSeq);
    // Aligned occurrence: bump the counter cell.
    Asm.materialize32(RegMdaT1, CounterAddr);
    Asm.mem(HostOp::Ldl, RegMdaT0, 0, RegMdaT1);
    Asm.opl(HostOp::Addl, RegMdaT0, 1, RegMdaT0);
    Asm.mem(HostOp::Stl, RegMdaT0, 0, RegMdaT1);
    Asm.opl(HostOp::Cmpult, RegMdaT0, static_cast<uint8_t>(Threshold),
            RegMdaT1);
    Asm.bne(RegMdaT1, RunSeq); // still warming up
    // Ask the monitor to revert this patch.
    Asm.materialize32(RegMdaT1, MailboxAddr);
    Asm.materialize32(RegMdaT0, FaultWord + 1);
    Asm.mem(HostOp::Stl, RegMdaT0, 0, RegMdaT1);
    Asm.bind(RunSeq);
  }
  if (isHostLoad(Faulting.Op))
    emitMdaLoad(Asm, Size, Faulting.Ra, Faulting.Rb, Faulting.Disp);
  else
    emitMdaStore(Asm, Size, Faulting.Ra, Faulting.Rb, Faulting.Disp);
  Asm.brTo(FaultWord + 1);
  Asm.finish();
  S.End = Asm.pos();
  return S;
}

uint32_t Translator::stubBranchWord(uint32_t FaultWord,
                                    uint32_t StubEntry) {
  int64_t Disp = static_cast<int64_t>(StubEntry) -
                 (static_cast<int64_t>(FaultWord) + 1);
  return encodeHost(
      brInst(HostOp::Br, RegZero, static_cast<int32_t>(Disp)));
}

uint32_t Translator::icWayDisabledWord(uint32_t K) {
  assert(K < IcWayWords && "word outside an inline-cache way");
  if (K == 0)
    return encodeHost(
        brInst(HostOp::Br, RegZero, static_cast<int32_t>(IcWayWords) - 1));
  return encodeHost(opInst(HostOp::Bis, RegZero, RegZero, RegZero));
}

std::array<uint32_t, IcWayWords>
Translator::icWayFilledWords(uint32_t Tag, uint32_t FinalBranch) {
  int32_t Lo = static_cast<int16_t>(Tag & 0xffff);
  int32_t Hi = static_cast<int32_t>(Tag - static_cast<uint32_t>(Lo)) >> 16;
  return {encodeHost(memInst(HostOp::Ldah, RegScratch1, Hi, RegZero)),
          encodeHost(memInst(HostOp::Lda, RegScratch1, Lo, RegScratch1)),
          encodeHost(opInst(HostOp::Zextl, RegZero, RegScratch1,
                            RegScratch1)),
          encodeHost(opInst(HostOp::Cmpeq, RegExitPc, RegScratch1,
                            RegScratch2)),
          encodeHost(brInst(HostOp::Beq, RegScratch2, 1)), FinalBranch};
}
