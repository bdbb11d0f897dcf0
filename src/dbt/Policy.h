//===- dbt/Policy.h - MDA handling policy interface ------------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy interface separating the DBT *mechanisms* (interpret,
/// translate, patch, supersede — owned by the engine) from the MDA
/// handling *policies* the paper evaluates (direct, static profiling,
/// dynamic profiling, exception handling, DPEH and its retranslation /
/// multi-version variants — implemented in src/mda).
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_POLICY_H
#define MDABT_DBT_POLICY_H

#include "dbt/Translation.h"
#include "guest/GuestInst.h"
#include "obs/TraceSink.h"

#include <cstdint>

namespace mdabt {
namespace dbt {

/// Decision returned by MdaPolicy::onFault.
struct FaultDecision {
  /// True: generate an MDA stub in the code cache and patch the faulting
  /// instruction into a branch to it (paper Fig. 5).  False: emulate the
  /// access in the handler and resume — the access will trap again next
  /// time (what pure profiling policies do with residual MDAs).
  bool PatchStub = false;
  /// True: additionally supersede the block with a fresh translation in
  /// which all known-MDA instructions are expanded inline.  With
  /// PatchStub this models code rearrangement (Fig. 6) when requested on
  /// every fault, or retranslation (Fig. 7) when requested at a fault
  /// threshold.
  bool Supersede = false;
  /// True: use the instrumented, revertible stub of paper Fig. 8
  /// (right): it counts aligned executions and asks the monitor to patch
  /// the original instruction back once the access pattern flips back to
  /// aligned.  Only meaningful with PatchStub.
  bool AdaptiveStub = false;
  /// Aligned-execution count that triggers the revert (1..255; any
  /// other value gets a plain stub, counted in harden.stub_downgrades).
  uint32_t RevertThreshold = 64;
};

/// An MDA handling policy.
class MdaPolicy {
public:
  virtual ~MdaPolicy();

  /// Human-readable mechanism name (paper Table II row).
  virtual const char *name() const = 0;

  /// Heating threshold: a block is interpreted until it has executed
  /// this many times, then translated.  0 translates on first execution
  /// (QEMU/FX!32-style one-phase systems).
  virtual uint32_t hotThreshold() const = 0;

  /// True if translation happens ahead of time (FX!32's "pre-execution"
  /// static translation, paper Fig. 3): the run is not charged
  /// translation cycles.
  virtual bool translationIsOffline() const { return false; }

  /// Block-level translation options (e.g. block-granularity
  /// multi-version code, paper section IV-D).
  virtual TranslationOpts translationOpts() const {
    return TranslationOpts();
  }

  /// Observation hook for every memory access interpreted in phase 1
  /// (the dynamic-profiling information source).
  virtual void onInterpMemAccess(uint32_t InstPc, uint32_t Addr,
                                 unsigned Size, bool IsStore) {
    (void)InstPc;
    (void)Addr;
    (void)Size;
    (void)IsStore;
  }

  /// Translation-time plan for the memory instruction at \p InstPc.
  /// Called again on retranslation, when the policy typically knows more.
  virtual MemPlan planMemoryOp(uint32_t InstPc,
                               const guest::GuestInst &Inst) = 0;

  /// A misalignment trap was delivered for the guest instruction at
  /// \p InstPc inside block \p BlockPc; \p BlockFaultCount is the
  /// block's trap count *including* this one.
  virtual FaultDecision onFault(uint32_t InstPc, uint32_t BlockPc,
                                uint32_t BlockFaultCount) = 0;

  /// The engine's trap-storm watchdog escalated on block \p BlockPc
  /// (degradation rung \p Rung, 1-based: rearrangement, block
  /// retranslation, interpret-only pin).  \p InstPc is the site the
  /// engine is force-inlining in future translations, or 0 when the
  /// whole block is affected.  Policies may fold the site into their
  /// own profiles so later translations agree with the override.
  virtual void onWatchdogEscalation(uint32_t BlockPc, uint32_t InstPc,
                                    uint32_t Rung) {
    (void)BlockPc;
    (void)InstPc;
    (void)Rung;
  }

  /// Observability: the engine binds its tracer (sink + virtual-time
  /// clock) before the run starts so policies can emit policy.* trace
  /// events.  A policy that is never bound holds a disabled tracer and
  /// pays one branch per emit call.
  void bindTracer(const obs::Tracer &T) { Trace = T; }

protected:
  /// Emits policy.* events (see docs/TELEMETRY.md); disabled unless the
  /// engine bound a sink via bindTracer.
  obs::Tracer Trace;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_POLICY_H
