//===- dbt/Translator.h - GX86 -> HAlpha block translator ------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates one guest basic block (or a superblock trace) into a
/// relocatable payload (CachedTranslation): a pure step that touches no
/// run's code cache.  The per-memory-operation strategy (normal op /
/// inline MDA sequence / multi-version code) is supplied by the active
/// policy through a plan callback, which is the paper's entire design
/// space.  Every payload — demand block, trace, shared-cache entry, AOT
/// unit — reaches an arena through the one install step, installPayload
/// (dbt/TranslationCapture.h).
///
/// Each guest operation has exactly one emitter: plain and fused ALU
/// ops share one lowering, a compare-and-branch and the fused
/// compare-with-zero branch share one two-way exit (block and trace
/// mode), and per-instruction and block-granularity multi-version code
/// share one alignment check.
///
/// Also emits the out-of-line MDA stubs the misalignment exception
/// handler patches in (paper Fig. 5): the stub re-performs the faulting
/// access with the unaligned-access toolkit and branches back to the
/// instruction after the patch site.  The Translator holds no state:
/// stub emission takes the live arena to append to, as translation
/// returns its payload, and the engine patches the fault site.  The
/// inline-cache way words the translator emits disabled and the monitor
/// later fills or retires come from one encoder here too.
///
/// Register conventions are documented in host/HostISA.h.  Guest state
/// lives in host registers across blocks; compare-and-branch pairs are
/// fused (the GX86 structural rule guarantees adjacency).
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATOR_H
#define MDABT_DBT_TRANSLATOR_H

#include "dbt/GuestBlock.h"
#include "dbt/Translation.h"
#include "host/CodeSpace.h"
#include "host/HostEncoding.h"

#include <array>
#include <functional>

namespace mdabt {
namespace dbt {

/// Host register holding guest GPR \p Reg.
inline uint8_t hostGpr(unsigned Reg) {
  return static_cast<uint8_t>(host::RegGprBase + Reg);
}

/// Host register holding guest Q register \p Reg.
inline uint8_t hostQ(unsigned Reg) {
  return static_cast<uint8_t>(host::RegQBase + Reg);
}

/// The block translator, the exception handler's stub emitter and the
/// inline-cache way encoder.  Stateless: every entry point takes what it
/// writes.
class Translator {
public:
  /// Chooses the plan for the memory instruction at a guest PC.
  using PlanFn =
      std::function<MemPlan(uint32_t InstPc, const guest::GuestInst &)>;

  /// Translate \p Block into a relocatable payload.
  static CachedTranslation
  translate(const GuestBlock &Block, const PlanFn &Plan,
            const TranslationOpts &Opts = TranslationOpts());

  /// Re-emit \p Blocks (>= 2, head first) as one straight-line
  /// superblock payload (EngineConfig::Superblocks).  On-trace control
  /// flow falls through between constituents; off-trace edges branch to
  /// shared side-exit stubs (one chainable Srv Exit per unique target).
  /// \p Plan must reproduce each site's original MDA treatment (the
  /// engine replays Translation::PlanByPc), so the trace is
  /// architecturally identical to running its constituents.
  static CachedTranslation
  translateTrace(const std::vector<GuestBlock> &Blocks, const PlanFn &Plan,
                 const TranslationOpts &Opts);

  /// An out-of-line MDA stub emitted by the exception handler.
  struct StubInfo {
    uint32_t Entry = 0;
    uint32_t End = 0;
  };

  /// Append to the live arena \p Code the MDA stub for the faulting
  /// memory instruction \p Faulting located at \p FaultWord, ending with
  /// a branch back to FaultWord + 1.  Does not patch the fault site
  /// itself (the engine writes stubBranchWord there).
  ///
  /// A nonzero \p Threshold (at most 255, an operate literal) emits the
  /// *adaptive* stub of paper Fig. 8 (right side): before the MDA
  /// sequence, instructions count consecutive executions at an aligned
  /// address (in the runtime cell \p CounterAddr); once the count
  /// reaches \p Threshold the stub posts FaultWord + 1 into the runtime
  /// mailbox at \p MailboxAddr, asking the monitor to patch the original
  /// memory instruction back in.  This is the "truly adaptive" method
  /// the paper analyzes (and concludes is rarely worth its ~10
  /// instructions of bookkeeping — reproduced by the ablation bench).
  static StubInfo emitStub(host::CodeSpace &Code,
                           const host::HostInst &Faulting,
                           uint32_t FaultWord, uint32_t CounterAddr = 0,
                           uint32_t MailboxAddr = 0, uint32_t Threshold = 0);

  /// The branch word that redirects the fault site \p FaultWord to the
  /// stub at \p StubEntry.
  static uint32_t stubBranchWord(uint32_t FaultWord, uint32_t StubEntry);

  /// Word \p K of a disabled inline-cache way (layout at IcWayWords in
  /// dbt/Translation.h): the guard (K = 0) skips the way, every other
  /// word is a nop.  The translator emits ways this way; the monitor
  /// retires one by rewriting the guard and scrubbing the final branch
  /// back to these words.
  static uint32_t icWayDisabledWord(uint32_t K);

  /// The words of an inline-cache way filled with tag \p Tag (the target
  /// block's guest PC) whose final word is the branch \p FinalBranch to
  /// the target's entry.
  static std::array<uint32_t, IcWayWords>
  icWayFilledWords(uint32_t Tag, uint32_t FinalBranch);
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATOR_H
