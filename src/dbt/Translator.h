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
/// Also emits the out-of-line MDA stubs the misalignment exception
/// handler patches in (paper Fig. 5): the stub re-performs the faulting
/// access with the unaligned-access toolkit and branches back to the
/// instruction after the patch site.  Stubs are appended to, and
/// patched into, the live arena the Translator was built over.
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

/// The block translator and the exception handler's stub emitter.
class Translator {
public:
  /// Chooses the plan for the memory instruction at a guest PC.
  using PlanFn =
      std::function<MemPlan(uint32_t InstPc, const guest::GuestInst &)>;

  /// \p Code is the live arena stubs are emitted into and patched.
  explicit Translator(host::CodeSpace &Code) : Code(Code) {}

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

  /// Emit the MDA stub for the faulting memory instruction \p Faulting
  /// located at \p FaultWord, ending with a branch back to
  /// FaultWord + 1.  Does not patch the fault site itself.
  StubInfo emitStub(const host::HostInst &Faulting, uint32_t FaultWord);

  /// Emit the *adaptive* MDA stub of paper Fig. 8 (right side): before
  /// the MDA sequence, instructions count consecutive executions at an
  /// aligned address (in the runtime cell \p CounterAddr); once the
  /// count reaches \p Threshold the stub posts FaultWord + 1 into the
  /// runtime mailbox at \p MailboxAddr, asking the monitor to patch the
  /// original memory instruction back in.  This is the "truly adaptive"
  /// method the paper analyzes (and concludes is rarely worth its ~10
  /// instructions of bookkeeping — reproduced by the ablation bench).
  /// \p Threshold 0 emits the plain stub of emitStub.
  StubInfo emitAdaptiveStub(const host::HostInst &Faulting,
                            uint32_t FaultWord, uint32_t CounterAddr,
                            uint32_t MailboxAddr, uint32_t Threshold);

  /// The branch word patchToStub writes (exposed so the engine can
  /// verify the patch actually landed before resuming execution).
  static uint32_t stubBranchWord(uint32_t FaultWord, uint32_t StubEntry);

  /// Patch the faulting word into a branch to \p StubEntry.
  void patchToStub(uint32_t FaultWord, uint32_t StubEntry);

private:
  host::CodeSpace &Code;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATOR_H
