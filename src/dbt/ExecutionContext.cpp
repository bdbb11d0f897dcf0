//===- dbt/ExecutionContext.cpp -------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/ExecutionContext.h"

#include "analysis/AlignmentAnalysis.h"
#include "analysis/CfgRecovery.h"
#include "analysis/HostVerifier.h"
#include "chaos/FaultInjector.h"
#include "dbt/AotTranslator.h"
#include "dbt/DispatchTable.h"
#include "dbt/FusionRules.h"
#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/Encoding.h"
#include "guest/Interpreter.h"
#include "guest/MdaCensus.h"
#include "host/HostAssembler.h"
#include "host/HostMachine.h"
#include "support/CacheModel.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace mdabt;
using namespace mdabt::dbt;
using namespace mdabt::host;

namespace {

/// Inline-cache ways per indirect exit when EngineConfig::InlineCaches
/// is on.
constexpr uint32_t IcWays = 2;
/// Backward-chain events into one head before a superblock is attempted.
constexpr uint32_t SuperblockThreshold = 1;
/// Maximum constituent blocks per superblock.
constexpr uint32_t SuperblockMaxBlocks = 8;
/// Superblock formation attempts per head PC (bounds retry after
/// de-opt).
constexpr uint32_t TraceFormationLimit = 8;
/// Consecutive no-progress traps at one host word before the
/// degradation ladder engages (the trap-storm watchdog).
constexpr uint32_t WatchdogTrapK = 8;
/// Failed translation attempts for one block before it is pinned
/// interpret-only.
constexpr uint32_t TranslateRetryLimit = 4;
/// Re-write attempts for a dropped or torn code-cache patch before the
/// previous content is restored and the patch abandoned.
constexpr uint32_t PatchRepairLimit = 3;

/// The unconditional branch word at code word \p At that lands on word
/// \p Target, or nothing if the displacement is out of branch range
/// (the exit then keeps going through the monitor).
std::optional<uint32_t> branchWord(uint32_t At, uint32_t Target) {
  int64_t Disp =
      static_cast<int64_t>(Target) - (static_cast<int64_t>(At) + 1);
  if (Disp < -(1 << 20) || Disp >= (1 << 20))
    return std::nullopt;
  return Translator::stubBranchWord(At, Target);
}

/// Deterministic retirement order regardless of hash-map iteration:
/// entry words are unique between flushes.
void sortByEntryWord(std::vector<Translation *> &Victims) {
  std::sort(Victims.begin(), Victims.end(),
            [](const Translation *A, const Translation *B) {
              return A->EntryWord < B->EntryWord;
            });
}

/// All per-run state of the engine: built fresh for every run.
/// Implements TraceClock so every emitted event is stamped with the
/// run's current modeled cycle count.
class ExecutionContext : public obs::TraceClock {
public:
  ExecutionContext(const guest::GuestImage &Image, MdaPolicy &Policy,
                   const EngineConfig &Config)
      : Policy(Policy), Config(Config), Cost(Config.Cost),
        Hard(Config.Hardening), Interp(Mem),
        Machine(Code, Mem, Hier, Cost), Profiler(*this),
        Trace(Config.Trace, this),
        HTransInsts(&Reg.histogram("translate.block_insts")),
        HTrapBlock(&Reg.histogram("trap.block_faults")),
        HInterpInsts(&Reg.histogram("interp.block_insts")) {
    Mem.loadImage(Image);
    Cpu.reset(Image);
    Service = Config.Service;
    // Guest-code write barrier (self-modifying-code coherence): the
    // callback only fires for stores into pages backing live
    // translations, so runs that never execute natively never pay.
    EntryPc = Image.Entry;
    StackTopAddr = Image.StackTop;
    Mem.setWriteWatcher([this](uint32_t Addr, unsigned Size) {
      onGuestCodeStore(Addr, Size);
    });
    // Static alignment inference over this run's own image copy (one
    // run = one isolated world, so --jobs fan-out stays bit-exact).
    // Like static profiling, the pass is modeled as offline work and
    // its cycles are not charged to the run.  AOT MemPlans come from
    // congruence verdicts, so the analysis is implied by Aot != Off even
    // when EngineConfig::Analysis is off.
    if (Config.Analysis || Config.Aot != AotMode::Off)
      Ana.emplace(
          analysis::analyzeAlignment(Mem, Image.Entry, Image.StackTop));
    if (Config.Analysis) {
      if (Trace.enabled()) {
        std::vector<uint32_t> Pcs;
        Pcs.reserve(Ana->Sites.size());
        for (const auto &Entry : Ana->Sites)
          Pcs.push_back(Entry.first);
        std::sort(Pcs.begin(), Pcs.end());
        for (uint32_t Pc : Pcs) {
          const analysis::SiteInfo &Site = Ana->Sites.at(Pc);
          Trace.emit(obs::TraceEventKind::AnalysisVerdict, Pc, 0,
                     static_cast<uint64_t>(Site.Verdict),
                     Site.Size | (Site.IsStore ? 0x100u : 0u));
        }
        Trace.emit(obs::TraceEventKind::AnalysisSummary,
                   static_cast<uint32_t>(Ana->Sites.size()),
                   Ana->Poisoned ? 1 : 0, Ana->NumAligned,
                   Ana->NumMisaligned);
      }
    }
    if (Config.Aot != AotMode::Off) {
      // Deterministic whole-image CFG recovery over the pristine bytes,
      // also modeled as offline work: the statically proven reachable
      // set the pre-translator covers and the verifier's reachability
      // invariant checks against.
      AotCfg.emplace(analysis::recoverCfg(Mem, Image.Entry));
      for (const auto &R : AotCfg->coverageRanges())
        AotReachable.push_back({R.first, R.second});
    }
    Interp.setObserver(&Profiler);
    Machine.setFaultHandler(
        [this](const FaultInfo &F) { return onFault(F); });
    Policy.bindTracer(Trace);
    if (Config.Chaos && Config.Chaos->enabled()) {
      Injector.emplace(*Config.Chaos);
      if (Trace.enabled())
        Injector->setInjectionHook([this](chaos::InjectKind K) {
          Trace.emit(obs::TraceEventKind::ChaosInjected, 0, 0,
                     static_cast<uint64_t>(K), Injector->injected());
        });
      // Intercept only the engine's own patch writes (stub redirection,
      // chaining, unchaining, reverts): translator-internal backpatches
      // are never read back for verification, so injecting there would
      // model a hazard the real trap/patch path does not have.
      Code.setPatchHook([this](uint32_t, uint32_t &W) {
        if (!ChaosPatchArmed)
          return true;
        switch (Injector->patchFault()) {
        case chaos::PatchFault::None:
          break;
        case chaos::PatchFault::Drop:
          ++ChaosPatchDrops;
          return false;
        case chaos::PatchFault::Torn:
          ++ChaosPatchTears;
          W = Injector->tearWord(W);
          break;
        }
        return true;
      });
    }
  }

  RunResult run();

private:
  // -- phase 1: interpretation with profiling ---------------------------

  /// Charges interpreter memory costs and feeds the policy's dynamic
  /// profile.
  class InterpProfiler : public guest::InterpObserver {
  public:
    explicit InterpProfiler(ExecutionContext &S) : S(S) {}
    void onMemAccess(uint32_t InstPc, uint32_t Addr, unsigned Size,
                     bool IsStore) override {
      ++S.InterpRefs;
      S.InterpCycles += S.Cost.InterpMemExtraCycles + S.Hier.data(Addr);
      S.Policy.onInterpMemAccess(InstPc, Addr, Size, IsStore);
    }
    ExecutionContext &S;
  };

  // -- verified code-cache patching --------------------------------------

  /// Write \p Desired into code word \p Word and verify by read-back,
  /// repairing a dropped or torn write up to PatchRepairLimit times.  On
  /// persistent failure the previous content is restored (a torn word
  /// must never become executable) and false is returned; if even the
  /// restore cannot be made to stick the run aborts with PatchFailed.
  bool patchVerified(uint32_t Word, uint32_t Desired) {
    // Write \p V until it reads back; the number of tries, 0 if none
    // stuck.
    auto Write = [&](uint32_t V) -> uint32_t {
      for (uint32_t A = 0; A <= PatchRepairLimit; ++A) {
        Code.patch(Word, V);
        if (Code.word(Word) == V)
          return A + 1;
      }
      return 0;
    };
    uint32_t Fallback = Code.word(Word);
    ChaosPatchArmed = true;
    if (uint32_t Tries = Write(Desired)) {
      ChaosPatchArmed = false;
      if (Tries > 1) {
        ++PatchRepairs;
        Trace.emit(obs::TraceEventKind::PatchRepaired, 0, 0, Word,
                   Desired);
      }
      return true;
    }
    ++PatchFailures;
    if (Hard.PatchFailureLimit != 0 &&
        PatchFailures > Hard.PatchFailureLimit)
      Abort = RunError::PatchFailed;
    // Roll back so execution never reaches a corrupt word.
    bool Restored = Write(Fallback) != 0;
    ChaosPatchArmed = false;
    Trace.emit(obs::TraceEventKind::PatchRolledBack, 0, 0, Word,
               Restored ? 1 : 0);
    if (!Restored)
      Abort = RunError::PatchFailed;
    return false;
  }

  // -- translation -------------------------------------------------------

  /// The engine's memory-op planning chain, shared by first translation
  /// and superblock re-emission fallback.
  MemPlan planMemOp(uint32_t Pc, const guest::GuestInst &I) {
    // Watchdog overrides (degradation rungs 1-2) win over the policy.
    if (ForceInline.count(Pc))
      return MemPlan::Inline;
    // Static verdicts next: a proof beats any policy heuristic, and
    // only Unknown sites fall through to the policy's machinery.
    if (Ana) {
      switch (Ana->verdictFor(Pc, I)) {
      case analysis::AlignVerdict::Aligned:
        ++PlanAlignedElides;
        return MemPlan::Elide;
      case analysis::AlignVerdict::Misaligned:
        ++PlanInlineForced;
        return MemPlan::Inline;
      case analysis::AlignVerdict::Unknown:
        break;
      }
    }
    return Policy.planMemoryOp(Pc, I);
  }

  /// planMemOp as the translator's plan callback.
  const Translator::PlanFn PlanChain = [this](uint32_t Pc,
                                              const guest::GuestInst &I) {
    return planMemOp(Pc, I);
  };

  /// Policy translation options with the engine's dispatch knobs folded
  /// in.
  TranslationOpts translationOpts() {
    TranslationOpts Opts = Policy.translationOpts();
    Opts.IcWays = Config.InlineCaches ? IcWays : 0;
    Opts.FusionMask =
        Config.Fusion ? (Config.FusionMask & FusionMaskAll) : 0;
    return Opts;
  }

  /// Account for the fused sequences of a freshly installed translation
  /// (local or cache-instantiated): per-site and per-block trace
  /// events, plus the fusion.* counters.
  void recordFusion(const Translation &T) {
    if (T.FusedSites.empty())
      return;
    uint64_t Saved = 0;
    for (const FusedSite &F : T.FusedSites) {
      Saved += F.SavedWords;
      Trace.emit(obs::TraceEventKind::FusionApplied, F.GuestPc, T.GuestPc,
                 F.Rule, F.SavedWords);
    }
    FusionSites += T.FusedSites.size();
    FusionSavedWords += Saved;
    ++FusionBlocks;
    Trace.emit(obs::TraceEventKind::FusionSummary, T.GuestPc, T.GuestPc,
               T.FusedSites.size(), Saved);
  }

  /// The live translation dispatched for guest \p Pc, if any.
  Translation *liveBlock(uint32_t Pc) {
    uint32_t Probes = 0;
    return Dispatch.lookup(Pc, Probes);
  }

  /// The acquire-or-translate step of the demand and superblock paths:
  /// install the payload of \p Blocks (one block, or a trace's
  /// constituents) into the Store, leased from the shared cache when a
  /// service is attached (\p Copied: a hit).  Null if the translation
  /// failed.
  Translation *acquireOrTranslate(const std::vector<GuestBlock> &Blocks,
                                  const Translator::PlanFn &Plan,
                                  uint32_t Generation, bool IsTrace,
                                  bool &Copied) {
    uint32_t Pc = Blocks.front().StartPc;
    uint32_t Insts = 0;
    for (const GuestBlock &B : Blocks)
      Insts += static_cast<uint32_t>(B.size());
    if (Injector && Injector->translateFails()) {
      // The translator failed: charge the wasted work and fall back to
      // interpretation.  A block is pinned interp-only once failures at
      // its PC persist; a trace's constituents simply stay in service.
      ++ChaosTranslateFails;
      ++TranslateFailures;
      if (!Policy.translationIsOffline())
        TranslateCycles +=
            static_cast<uint64_t>(Insts) * Cost.TranslateCyclesPerInst;
      Trace.emit(obs::TraceEventKind::TranslationFailed, Pc, Pc,
                 IsTrace ? 0 : TranslateFailsAt[Pc] + 1, Generation);
      if (!IsTrace && ++TranslateFailsAt[Pc] >= TranslateRetryLimit) {
        InterpOnly.insert(Pc);
        ++LadderInterpPins;
      }
      if (Hard.TranslationFailureLimit != 0 &&
          TranslateFailures > Hard.TranslationFailureLimit)
        Abort = RunError::TranslationFailed;
      return nullptr;
    }
    if (!IsTrace)
      TranslateFailsAt.erase(Pc);
    TranslationOpts Opts = translationOpts();
    auto Produce = [&] {
      return IsTrace ? Translator::translateTrace(Blocks, Plan, Opts)
                     : Translator::translate(Blocks.front(), Plan, Opts);
    };
    if (!Service) {
      Store.push_back(installPayload(Code, Produce(), Generation));
      return &Store.back();
    }
    // Serving path: keyed over every constituent (including unroll
    // copies), so a trace's exact shape is part of its key.  A miss
    // publishes its payload and installs it from the lease like a hit.
    Acquired A = dbt::acquireOrTranslate(Mem, Blocks.data(), Blocks.size(),
                                         Plan, Opts, IsTrace, Service, Produce);
    Store.push_back(installPayload(Code, A.payload(), Generation));
    Copied = A.FromCache;
    if (A.FromCache) {
      ++CacheHits;
      CacheHitInsts += Insts;
      Trace.emit(obs::TraceEventKind::CacheHit, Pc, Pc, A.Key.Lo,
                 Generation);
    } else {
      ++CacheMisses;
      CacheEvictions += A.Evicted;
      Trace.emit(obs::TraceEventKind::CacheMiss, Pc, Pc, A.Key.Lo,
                 Generation);
      if (A.Evicted)
        Trace.emit(obs::TraceEventKind::CacheEvict, Pc, Pc, A.Evicted, 0);
    }
    Leases.emplace(&Store.back(), std::move(A.Lease));
    return &Store.back();
  }

  /// The install step of demand blocks, AOT units and superblock traces:
  /// map \p T (a trace's caller redirects the head instead), watch its
  /// bytes, charge translate (or, if \p Copied, install) cycles and code
  /// growth, bump \p Installed and emit \p Kind(\p A, \p B).  A
  /// translation bigger than the whole cache would flush-thrash on every
  /// dispatch: it is retired (a block also pinned interpret-only) and
  /// false returned.  The caller runs the verifier.
  bool installCode(Translation *T, bool Copied, uint64_t &Installed,
                   obs::TraceEventKind Kind, uint64_t A, uint64_t B) {
    Regions[T->EntryWord] = {T->EndWord, T};
    if (!T->IsTrace)
      Dispatch.insert(T->GuestPc, T);
    trackTranslation(T);
    if (!Policy.translationIsOffline())
      TranslateCycles += static_cast<uint64_t>(T->GuestInsts) *
                         (Copied ? Cost.CacheInstallCyclesPerInst
                                 : Cost.TranslateCyclesPerInst);
    ++Installed;
    chargeCodeGrowth();
    checkBudgets();
    HTransInsts->record(T->GuestInsts);
    Trace.emit(Kind, T->GuestPc, T->GuestPc, A, B);
    recordFusion(*T);
    if (Config.CodeCacheLimitWords != 0 &&
        T->EndWord - T->EntryWord > Config.CodeCacheLimitWords) {
      if (!T->IsTrace) {
        InterpOnly.insert(T->GuestPc);
        ++OversizedPins;
      }
      invalidate(T);
      return false;
    }
    return true;
  }

  Translation *installTranslation(uint32_t GuestPc, uint32_t Generation,
                                  bool AllowFlush = false) {
    if (InterpOnly.count(GuestPc))
      return nullptr; // degradation rung 3: this block stays interpreted
    // Never plan from stale verdicts: a supersede can reach here before
    // the monitor loop's own re-analysis point.
    maybeReanalyze();
    if (Abort != RunError::None)
      return nullptr;
    // Capacity policy: flush before installing, and only from monitor
    // context (translated code must not be running during a flush).
    if (AllowFlush && !flushIfFull())
      return nullptr;
    std::vector<GuestBlock> Blocks;
    Blocks.push_back(discoverBlock(Mem, GuestPc));
    bool Copied = false;
    Translation *T = acquireOrTranslate(Blocks, PlanChain, Generation,
                                        /*IsTrace=*/false, Copied);
    if (!T)
      return nullptr;
    bool Live = installCode(T, Copied, Translations,
                            obs::TraceEventKind::BlockTranslated,
                            T->GuestInsts, Generation);
    runVerifier();
    return Live ? T : nullptr;
  }

  /// Evict one inline-cache way of \p Owner (\p Why: 0 refill, 1 target
  /// invalidated): disable its guard, then scrub its final branch (so no
  /// branch into a dead entry survives in verified code).  Returns false
  /// if the guard could not be disabled; the way is then quarantined as
  /// Stale — the intact dead target code it may still reach is the same
  /// contained casualty as a stale chain.
  bool retireIcWay(IcWay &Way, const Translation *Owner, uint64_t Why) {
    ++IcEvictions;
    Trace.emit(obs::TraceEventKind::DispatchIcEvict, Way.TargetGuestPc,
               Owner->GuestPc, Way.Begin, Why);
    uint32_t FinalBr = Way.Begin + IcWayWords - 1;
    if (!patchVerified(Way.Begin, Translator::icWayDisabledWord(0))) {
      Way.Stale = true;
      Way.Filled = false;
      StaleChainWords.insert(FinalBr);
      return false;
    }
    Way.Filled = false;
    if (!patchVerified(FinalBr,
                       Translator::icWayDisabledWord(IcWayWords - 1)))
      StaleChainWords.insert(FinalBr);
    return true;
  }

  /// Take \p Old out of service: mark invalid, unchain every direct
  /// branch into it, and retire every inline-cache way targeting it so
  /// stale callers fall back to the monitor.
  void invalidate(Translation *Old) {
    Old->Valid = false;
    untrackTranslation(Old);
    // Whatever retired this translation (SMC, supersede, verdict
    // revocation, ladder) also invalidates the statically computed
    // plans of its pending AOT unit: never re-install those.
    dropAotUnit(Old->GuestPc);
    Dispatch.eraseIf(Old->GuestPc, Old);
    HTrapBlock->record(Old->FaultCount);
    Trace.emit(obs::TraceEventKind::BlockInvalidated, 0, Old->GuestPc,
               Old->FaultCount, Old->Generation);
    if (Old->IsTrace) {
      ++TraceDeopts;
      Trace.emit(obs::TraceEventKind::TraceDeopt, 0, Old->GuestPc,
                 Old->Constituents.size(), Old->Generation);
    }
    for (uint32_t W : Old->IncomingChains) {
      if (!patchVerified(W, encodeHost(srvInst(SrvFunc::Exit)))) {
        // The unchain did not stick (fault injection): a live block now
        // holds a stale branch to this dead entry.  Quarantine the word
        // for the verifier — it is a known, contained casualty until
        // the next flush, not a fresh corruption.  Exception: under
        // SMC-triggered invalidation the dead code is *semantically*
        // stale (the guest bytes it was compiled from were rewritten),
        // so reaching it would compute old semantics with no trap to
        // catch it — that must abort, not quarantine.
        StaleChainWords.insert(W);
        if (SmcStrict)
          Abort = RunError::PatchFailed;
      }
    }
    Old->IncomingChains.clear();
    for (const IcWayRef &Ref : Old->IncomingIcWays) {
      if (!Ref.Owner->Valid)
        continue; // the caller died too; the flush will reap both
      IcWay &Way = Ref.Owner->IcSites[Ref.Site].Ways[Ref.Way];
      // Lazy staleness: the way may have been refilled toward another
      // target since this back-reference was recorded (entry words are
      // unique between flushes, so the comparison is exact).
      if (!Way.Filled || Way.TargetEntry != Old->EntryWord)
        continue;
      if (!retireIcWay(Way, Ref.Owner, 1) && SmcStrict) {
        // Same strictness as the unchain loop above: a quarantined way
        // may still branch into semantically stale code.
        Abort = RunError::PatchFailed;
      }
    }
    Old->IncomingIcWays.clear();
    // The run no longer depends on the shared-cache entry backing this
    // translation (if any): drop the lease so the entry becomes
    // evictable once every other tenant releases too.  Purely local —
    // another run's lease on the same entry is untouched, which is the
    // cross-tenant guarantee (a hostile tenant invalidating or flushing
    // its own copies can never retire ours).
    Leases.erase(Old);
  }

  /// Invalidate \p Old and retranslate its guest block (rearrangement /
  /// retranslation; the policy's plan callback decides what is inlined
  /// in the new incarnation).
  void supersede(Translation *Old) {
    if (!Old->Valid)
      return; // already superseded; the stale code may still be running
    // The plans are being revised: the block's pending AOT unit is now
    // stale even on the FlushOnSupersede path (which never reaches
    // invalidate()) — re-installing it after the flush would recreate
    // the very translation this supersede is retiring, forever.
    dropAotUnit(Old->GuestPc);
    Trace.emit(obs::TraceEventKind::BlockRetranslated, 0, Old->GuestPc,
               Old->Generation + 1, Config.FlushOnSupersede ? 1 : 0);
    if (Config.FlushOnSupersede) {
      // Dynamo-style: flush everything at the next safe point (we may
      // be inside the fault handler with the old code still running).
      PendingFlush = true;
    } else {
      invalidate(Old);
      installTranslation(Old->GuestPc, Old->Generation + 1);
    }
    ++Supersedes;
    checkBudgets();
  }

  /// The arena has outgrown EngineConfig::CodeCacheLimitWords.
  bool overCapacity() const {
    return Config.CodeCacheLimitWords != 0 &&
           Code.size() > Config.CodeCacheLimitWords;
  }

  /// Capacity-triggered flush before an install; false if it aborted
  /// the run.
  bool flushIfFull() {
    if (overCapacity())
      flushAll();
    return Abort == RunError::None;
  }

  /// Full code-cache flush (Dynamo-style, or capacity-triggered).  Only
  /// legal from the monitor, when no translated code is running.
  void flushAll() {
    Trace.emit(obs::TraceEventKind::CacheFlush, 0, 0, Code.size(),
               Store.size());
#ifndef NDEBUG
    // Chain/IC bookkeeping must be fully confined to the dying arena:
    // every incoming-chain word and quarantined word indexes code that
    // is about to be dropped.  A word at or past the arena end would
    // mean a link into code that survives the flush — a leak that would
    // resurrect as a wild branch after the arena refills.
    for (const Translation &T : Store) {
      for (uint32_t W : T.IncomingChains)
        assert(W < Code.size() && "incoming chain outlives the arena");
      for (const IcWayRef &Ref : T.IncomingIcWays)
        assert(Ref.Owner->IcSites[Ref.Site].Ways[Ref.Way].Begin <
                   Code.size() &&
               "incoming IC way outlives the arena");
    }
    for (uint32_t W : StaleChainWords)
      assert(W < Code.size() && "quarantined word outlives the arena");
#endif
    for (Translation &T : Store) {
      T.IncomingChains.clear();
      T.IncomingIcWays.clear();
    }
    // Flushed translations leave service without invalidate(): record
    // their trap counts before the store is dropped.  Write-barrier
    // bookkeeping dies with the arena; invalid translations were
    // already untracked by invalidate().
    for (Translation &T : Store) {
      if (T.Valid) {
        HTrapBlock->record(T.FaultCount);
        untrackTranslation(&T);
      }
    }
    TrackedByPage.clear();
    // Pending AOT units keep their write-barrier watches across the
    // flush (their payloads survive for lazy re-install), so the drain
    // target is their mirrored page set, not zero.
    assert(Mem.watchedPages() == AotWatchRef.size() &&
           "write-watch refcounts must drain on flush");
    Code.clear();
    Regions.clear();
    Store.clear();
    Leases.clear(); // release every shared-cache lease with the arena
    PatchedOriginals.clear();
    StaleChainWords.clear();
    Dispatch.clear();
    assert(StaleChainWords.empty() &&
           "stale-chain quarantine must drain on flush");
    PendingFlush = false;
    LastCodeWords = 0; // emission accounting stays monotone
    ++Flushes;
    LastFlushStep = StepIndex;
    if (Hard.FlushLimit != 0 && Flushes > Hard.FlushLimit)
      Abort = RunError::CacheThrash;
    // Heat survives: hot blocks retranslate on their next dispatch,
    // exactly like a real cache flush.
    runVerifier();
  }

  // -- guest-code coherence (self-modifying code) ---------------------------

  /// Watch (\p Watch) or unwatch \p Ranges in the guest write barrier,
  /// then visit every watch page they cover, once each (adjacent trace
  /// constituents may share a page).
  template <typename Fn>
  void forEachWatchPage(const GuestRangeList &Ranges, bool Watch, Fn F) {
    std::vector<uint32_t> Pages;
    for (const auto &R : Ranges) {
      if (Watch)
        Mem.watchRange(R.first, R.second);
      else
        Mem.unwatchRange(R.first, R.second);
      uint32_t P0 = R.first >> guest::GuestMemory::WatchPageShift;
      uint32_t P1 = (R.second - 1) >> guest::GuestMemory::WatchPageShift;
      for (uint32_t P = P0; P <= P1; ++P)
        if (std::find(Pages.begin(), Pages.end(), P) == Pages.end())
          Pages.push_back(P);
    }
    for (uint32_t P : Pages)
      F(P);
  }

  /// Register a freshly installed translation with the write barrier:
  /// its guest ranges become watched, and the per-page victim index
  /// learns about it.  Called by the install step; paired with
  /// untrackTranslation (via invalidate or flushAll).
  void trackTranslation(Translation *T) {
    T->BornEpoch = StoreEpoch;
    forEachWatchPage(T->GuestRanges, /*Watch=*/true,
                     [&](uint32_t P) { TrackedByPage[P].push_back(T); });
  }

  /// Drop a translation from the barrier's bookkeeping (called as it
  /// leaves service).
  void untrackTranslation(Translation *T) {
    forEachWatchPage(T->GuestRanges, /*Watch=*/false, [&](uint32_t P) {
      auto It = TrackedByPage.find(P);
      if (It == TrackedByPage.end())
        return;
      auto VIt = std::find(It->second.begin(), It->second.end(), T);
      if (VIt != It->second.end())
        It->second.erase(VIt);
      if (It->second.empty())
        TrackedByPage.erase(It);
    });
  }

  // -- static AOT pre-translation (EngineConfig::Aot) -----------------------

  /// Register a pending AOT unit's source bytes with the write barrier
  /// and mirror the page refcounts: a guest store into a pending unit
  /// must stale it even before (or after) installation, and flushAll's
  /// drain assertion needs to know how many watched pages are AOT's.
  void watchAotUnit(const AotTranslator::Unit &U) {
    forEachWatchPage(U.Payload.GuestRanges, /*Watch=*/true,
                     [&](uint32_t P) { ++AotWatchRef[P]; });
  }

  /// Release the watches of the AOT units at \p Pcs, just staled.
  void unwatchAotUnits(const std::vector<uint32_t> &Pcs) {
    for (uint32_t Pc : Pcs)
      forEachWatchPage(Aot->find(Pc)->Payload.GuestRanges, /*Watch=*/false,
                       [&](uint32_t P) {
                         auto It = AotWatchRef.find(P);
                         if (It != AotWatchRef.end() && --It->second == 0)
                           AotWatchRef.erase(It);
                       });
  }

  /// A plan revision retired the translation at \p Pc (supersede,
  /// degradation ladder, SMC victim): its pending AOT unit, compiled
  /// under the old plans, must never be re-installed.
  void dropAotUnit(uint32_t Pc) {
    if (Aot && Aot->drop(Pc))
      unwatchAotUnits({Pc});
  }

  /// Install one pending AOT unit's payload into the run's arena, at
  /// cache-install cost (its translate cycles were charged at startup).
  /// The verifier, as the AOT output checker, sweeps a dropped oversized
  /// unit and, when \p Sweep, every install — even with
  /// EngineConfig::Verify off; the startup batch defers to one sweep
  /// over the whole pre-populated cache instead.
  Translation *installAotUnit(const AotTranslator::Unit &U, bool Sweep) {
    Store.push_back(installPayload(Code, U.Payload, /*Generation=*/0));
    Translation *T = &Store.back();
    T->AotInstalled = true;
    ++AotInstalls;
    bool Live = installCode(T, /*Copied=*/true, Translations,
                            obs::TraceEventKind::AotInstall, T->GuestInsts,
                            U.FromCache ? 1 : 0);
    if (!Live || Sweep)
      runVerifier(/*Force=*/true);
    return Live ? T : nullptr;
  }

  /// The AOT startup phase (run() calls this before the first guest
  /// instruction): statically translate every proven-reachable block,
  /// watch every unit's source bytes, eagerly install the lot under
  /// AotMode::Full, and run the verifier as the AOT output checker over
  /// the pre-populated cache — even when EngineConfig::Verify is off.
  void aotStartup() {
    uint64_t Cycles0 = now();
    Aot.emplace(Mem, *AotCfg, PlanChain, translationOpts(), Service, Cost);
    Aot->pretranslateAll();
    const AotTranslator::Stats &AS = Aot->stats();
    if (!Policy.translationIsOffline())
      TranslateCycles += AS.StartupTranslateCycles;
    for (const auto &[Pc, U] : Aot->units()) {
      Trace.emit(obs::TraceEventKind::AotTranslated, Pc, Pc,
                 U.Payload.GuestInsts, U.FromCache ? 1 : 0);
      watchAotUnit(U);
    }
    if (Config.Aot == AotMode::Full) {
      for (const auto &[Pc, U] : Aot->units()) {
        // Capacity containment: leave the tail pending — it installs
        // lazily at first dispatch, exactly the hybrid path.
        if (Abort != RunError::None || overCapacity())
          break;
        if (!U.Stale && !InterpOnly.count(Pc))
          installAotUnit(U, /*Sweep=*/false);
      }
    }
    AotStartupCycles = now() - Cycles0;
    Trace.emit(obs::TraceEventKind::AotSummary,
               static_cast<uint32_t>(AS.RecoveredBlocks),
               static_cast<uint32_t>(AS.FrontierSites), AS.Translated,
               AS.FromCache);
    // The AOT output checker: one full structural sweep (including the
    // reachability invariant) before the first guest instruction.
    runVerifier(/*Force=*/true);
  }

  /// The guest-code write barrier.  GuestMemory calls this for every
  /// store whose first or last byte lands on a watched page — i.e. a
  /// page backing at least one live translation.  Models the
  /// page-protection trap a real DBT takes on such stores, then
  /// performs precise transactional invalidation: every live
  /// translation whose *compiled byte ranges* overlap the store is
  /// retired before the next dispatch (a neighbour that merely shares
  /// the page stays live).  Coherence contract: rewritten guest code
  /// takes effect no later than the next basic-block boundary, exactly
  /// like classic pre-P6 x86 ("effective after the next jump").
  void onGuestCodeStore(uint32_t Addr, unsigned Size) {
    if (InSmcBarrier)
      return; // re-entrant store from coherence work itself
    InSmcBarrier = true;
    ++SmcStores;
    ++StoreEpoch;
    Machine.addCycles(Cost.SmcWriteTrapCycles);
    Trace.emit(obs::TraceEventKind::SmcStore, 0, 0, Addr, Size);
    for (uint32_t B = Addr; B != Addr + Size; ++B)
      ByteDirtyEpoch[B] = StoreEpoch;
    // Pending AOT units whose source bytes this store rewrote can never
    // be installed: the dynamic path re-discovers from the new bytes.
    if (Aot)
      unwatchAotUnits(Aot->noteGuestStore(Addr, Size));
    // Victim collection first, mutation after: invalidation edits the
    // per-page index we are reading.
    std::vector<Translation *> Victims;
    uint32_t P0 = Addr >> guest::GuestMemory::WatchPageShift;
    uint32_t P1 = (Addr + Size - 1) >> guest::GuestMemory::WatchPageShift;
    for (uint32_t P = P0; P <= P1; ++P) {
      auto It = TrackedByPage.find(P);
      if (It == TrackedByPage.end())
        continue;
      for (Translation *T : It->second) {
        if (!T->Valid)
          continue;
        if (overlapsAny(T->GuestRanges, Addr, Addr + Size) &&
            std::find(Victims.begin(), Victims.end(), T) == Victims.end())
          Victims.push_back(T);
      }
    }
    sortByEntryWord(Victims);
    // The store came from *inside* a victim (a superblock fused the
    // patcher with the code it patches, or a block rewrote its own
    // bytes): quarantining alone is not enough, because the episode
    // would keep executing the stale body it just overwrote.  Arm a
    // machine stop at the end of the storing guest instruction and
    // resume via fresh dispatch — the rewrite takes effect at the next
    // guest instruction, exactly the interpreter's semantics.
    if (InNative) {
      Translation *Running = findOwner(Machine.currentWord());
      if (Running && std::find(Victims.begin(), Victims.end(), Running) !=
                         Victims.end()) {
        auto It = Running->StoreResume.find(Machine.currentWord());
        if (It != Running->StoreResume.end()) {
          Machine.stopAt(It->second.EndWord, It->second.ResumePc);
          ++SmcEpisodeStops;
          Trace.emit(obs::TraceEventKind::SmcEpisodeStop,
                     It->second.ResumePc, Running->GuestPc,
                     Machine.currentWord(), It->second.EndWord);
        } else {
          // No resume metadata for this word: the in-flight episode
          // cannot be stopped coherently.  Typed abort — never let a
          // hostile guest turn a bookkeeping gap into silent
          // corruption.
          Abort = RunError::PatchFailed;
        }
      }
    }
    // Strict mode: a failed unchain or IC-retire during SMC
    // invalidation must abort, not quarantine.  A stale branch into
    // *superseded* code reaches architecturally equivalent
    // instructions; a stale branch into *rewritten* code reaches old
    // semantics with no trap to catch it.
    SmcStrict = true;
    for (Translation *T : Victims) {
      ++SmcInvalidations;
      Trace.emit(obs::TraceEventKind::SmcInvalidate, Addr, T->GuestPc,
                 T->Generation, T->IsTrace ? 1 : 0);
      invalidate(T);
      uint32_t Pin = ++SmcInvalsAt[T->GuestPc];
      if (Config.Budget.SmcChurnPinLimit != 0 &&
          Pin >= Config.Budget.SmcChurnPinLimit &&
          !InterpOnly.count(T->GuestPc)) {
        // Per-block churn containment: a block rewritten this often is
        // cheaper to interpret (rung 3 of the degradation ladder) —
        // the interpreter fetches fresh bytes every instruction, so
        // SMC is free there.
        InterpOnly.insert(T->GuestPc);
        ++SmcChurnPins;
        ++LadderInterpPins;
        Trace.emit(obs::TraceEventKind::SmcChurnPin, 0, T->GuestPc, Pin,
                   0);
      }
    }
    SmcStrict = false;
    // Any rewrite of watched code bytes may shift dataflow the static
    // analysis proved facts about; re-run it lazily at the next safe
    // point and revoke elides that no longer hold.
    if (Ana)
      AnaStale = true;
    checkBudgets();
    if (!Victims.empty())
      runVerifier();
    InSmcBarrier = false;
  }

  /// Re-run the static alignment analysis if guest code changed since
  /// the last pass (lazy: one pass absorbs a whole burst of stores),
  /// then revoke Elide verdicts that no longer hold.
  void maybeReanalyze() {
    if (!AnaStale || !Ana || Abort != RunError::None)
      return;
    AnaStale = false;
    Ana.emplace(analysis::analyzeAlignment(Mem, EntryPc, StackTopAddr));
    ++SmcReanalyses;
    Trace.emit(obs::TraceEventKind::SmcReanalysis, 0, 0,
               Ana->Sites.size(), Ana->Poisoned ? 1 : 0);
    // Every pending AOT unit was planned under the old verdicts, and a
    // rewritten byte anywhere can shift dataflow into blocks it does
    // not overlap — a stale Elide re-installed from a pre-translation
    // would skip MDA handling without a current proof.  Drop them all;
    // covered code falls back to demand translation under fresh plans.
    if (Aot)
      unwatchAotUnits(Aot->dropAll());
    revokeStaleElides();
  }

  /// Sweep live translations for Elide sites whose Aligned proof does
  /// not survive the fresh analysis (the modified bytes may sit in a
  /// *different* block that feeds this one's dataflow) and invalidate
  /// them; their next translation re-plans every site under the new
  /// verdicts.  EngineConfig::Analysis stays sound: no live code elides
  /// MDA bookkeeping without a current proof.
  void revokeStaleElides() {
    std::vector<Translation *> Victims;
    for (Translation &T : Store) {
      if (!T.Valid)
        continue;
      std::vector<uint32_t> ElidePcs;
      for (const auto &KV : T.PlanByPc)
        if (KV.second == MemPlan::Elide)
          ElidePcs.push_back(KV.first);
      std::sort(ElidePcs.begin(), ElidePcs.end());
      for (uint32_t Pc : ElidePcs) {
        guest::GuestInst I;
        if (guest::decode(Mem.data(), Mem.size(), Pc, I) &&
            Ana->verdictFor(Pc, I) == analysis::AlignVerdict::Aligned)
          continue; // still proven; the elide stands
        ++SmcVerdictsRevoked;
        Trace.emit(obs::TraceEventKind::SmcVerdictRevoked, Pc, T.GuestPc,
                   T.Generation, 0);
        Victims.push_back(&T);
        break; // one revoked site retires the whole translation
      }
    }
    sortByEntryWord(Victims);
    for (Translation *T : Victims)
      if (T->Valid) // an earlier victim's unchaining cannot kill it,
        invalidate(T); // but stay defensive
    if (!Victims.empty())
      runVerifier();
  }

  // -- resource governance ---------------------------------------------------

  /// Account freshly emitted host-code words against the cumulative
  /// emission budget.  Monotone across flushes: Code.size() resets to
  /// zero but CodeBytesEmitted never decreases, so flush-and-refill
  /// churn cannot hide under a bounded arena.
  void chargeCodeGrowth() {
    uint32_t Words = Code.size();
    if (Words > LastCodeWords)
      CodeBytesEmitted +=
          static_cast<uint64_t>(Words - LastCodeWords) * 4;
    LastCodeWords = Words;
  }

  /// Enforce the BudgetConfig ceilings (all 0 = unlimited).  First
  /// ceiling tripped wins; the typed RunError tells the operator *what*
  /// the hostile guest exhausted.
  void checkBudgets() {
    const BudgetConfig &B = Config.Budget;
    if (Abort != RunError::None)
      return;
    if (B.MaxTranslations != 0 &&
        Translations + TracesFormed > B.MaxTranslations) {
      Abort = RunError::BudgetTranslations;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 0,
                 Translations + TracesFormed);
    } else if (B.MaxCodeBytes != 0 && CodeBytesEmitted > B.MaxCodeBytes) {
      Abort = RunError::BudgetCodeBytes;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 1,
                 CodeBytesEmitted);
    } else if (B.MaxChurn != 0 &&
               Supersedes + SmcInvalidations > B.MaxChurn) {
      Abort = RunError::BudgetChurn;
      Trace.emit(obs::TraceEventKind::BudgetExceeded, 0, 0, 2,
                 Supersedes + SmcInvalidations);
    }
  }

  // -- code-cache verification ---------------------------------------------

  /// Run the structural verifier (EngineConfig::Verify) over the
  /// current cache.  Called after every mutation of installed code; a
  /// violation aborts the run with VerifyFailed.  Read-only, so it is
  /// safe even from fault-handler context.  \p Force runs the sweep
  /// even when EngineConfig::Verify is off — the AOT output checker
  /// verifies statically produced code unconditionally.
  void runVerifier(bool Force = false) {
    if ((!Config.Verify && !Force) || Abort != RunError::None)
      return;
    // The input is rebuilt in place each sweep, so its vectors keep
    // their storage; fused-site reference words are viewed, not copied.
    analysis::VerifierInput &In = VerifyIn;
    size_t NumBlocks = 0;
    for (Translation &T : Store) {
      if (!T.Valid)
        continue;
      if (NumBlocks == In.Blocks.size())
        In.Blocks.emplace_back();
      analysis::VerifierBlock &B = In.Blocks[NumBlocks++];
      B.EntryWord = T.EntryWord;
      B.EndWord = T.EndWord;
      B.BornEpoch = T.BornEpoch;
      B.AotInstalled = T.AotInstalled;
      B.Stubs.clear();
      for (const auto &S : T.Stubs)
        B.Stubs.push_back({S.first, S.second});
      B.GuestRanges.clear();
      for (const auto &R : T.GuestRanges)
        B.GuestRanges.push_back({R.first, R.second});
      B.ExitWords.clear();
      for (const ExitSite &X : T.Exits)
        B.ExitWords.push_back(X.SrvWord);
      B.IcWays.clear();
      for (const IcSite &S : T.IcSites)
        for (const IcWay &W : S.Ways)
          if (!W.Stale) // quarantined ways are covered by ExemptWords
            B.IcWays.push_back(
                {W.Begin, W.Filled, W.TargetEntry, W.TargetGuestPc});
      B.Patches.clear();
      for (uint32_t W : T.PatchedWords)
        B.Patches.push_back({W, T.MemWordToGuestPc.count(W) != 0});
      B.FusedSites.clear();
      for (const FusedSite &F : T.FusedSites)
        B.FusedSites.push_back({F.Rule, F.Begin, F.End, F.Words});
    }
    In.Blocks.resize(NumBlocks);
    In.ExemptWords = StaleChainWords;
    In.IcWayWords = IcWayWords;
    In.GuestDirtyEpoch = &ByteDirtyEpoch;
    In.ReachableRanges = AotCfg ? &AotReachable : nullptr;
    if (!Verifier)
      Verifier.emplace();
    analysis::VerifyReport Report = Verifier->verify(Code, In);
    VerifyWords += Report.WordsChecked;
    if (Report.ok()) {
      ++VerifyPasses;
      Trace.emit(obs::TraceEventKind::VerifyPass, 0, 0,
                 Report.WordsChecked, Report.RegionsChecked);
      return;
    }
    VerifyIssues += Report.Issues.size();
    for (const analysis::VerifyIssue &I : Report.Issues)
      Trace.emit(obs::TraceEventKind::VerifyFail, 0, I.Word,
                 static_cast<uint64_t>(I.Kind), I.Aux);
    Abort = RunError::VerifyFailed;
  }

  // -- fault handling ------------------------------------------------------

  Translation *findOwner(uint32_t Word) {
    auto It = Regions.upper_bound(Word);
    if (It == Regions.begin())
      return nullptr;
    --It;
    if (Word >= It->second.first)
      return nullptr;
    return It->second.second;
  }

  /// Handle one (possibly stale or injected) trap delivery.  Validates
  /// the delivery against the current cache contents before acting:
  /// duplicate and spurious deliveries for a word that has since been
  /// patched, flushed, or reused must not patch the wrong instruction.
  FaultAction deliver(const FaultInfo &F) {
    if (F.HostPc >= Code.size() ||
        Code.word(F.HostPc) != encodeHost(F.Inst)) {
      // Stale delivery: the word no longer holds the faulting
      // instruction (already patched, flushed, or reused).
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 0);
      return FaultAction::Retry;
    }
    Translation *T = findOwner(F.HostPc);
    if (!T) {
      // The word matches but no live translation owns it (flushed and
      // not yet reused): emulate so the guest still makes progress.
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 1);
      return FaultAction::Fixup;
    }
    auto It = T->MemWordToGuestPc.find(F.HostPc);
    if (It == T->MemWordToGuestPc.end()) {
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, T->GuestPc,
                 F.HostPc, 2);
      return FaultAction::Retry;
    }
    uint32_t InstPc = It->second;
    ++T->FaultCount;
    Trace.emit(obs::TraceEventKind::TrapTaken, InstPc, T->GuestPc,
               F.HostPc, T->FaultCount);

    FaultDecision D = Policy.onFault(InstPc, T->GuestPc, T->FaultCount);
    if (!D.PatchStub)
      return FaultAction::Fixup;

    // Exception-handling method (paper Fig. 5): generate the MDA code
    // sequence in the code cache and patch the offending instruction.
    Translator::StubInfo S;
    bool Adaptive = D.AdaptiveStub;
    if (Adaptive && (D.RevertThreshold == 0 || D.RevertThreshold > 255 ||
                     NextCounterCell + 4 > Mem.size())) {
      // A revert threshold the stub's 8-bit compare literal cannot
      // hold, or exhausted runtime counter cells: degrade to a plain
      // stub rather than aborting or corrupting guest memory.
      Adaptive = false;
      ++StubDowngrades;
    }
    if (Adaptive) {
      // The revertible stub of paper Fig. 8 (right): remember the
      // original word so the monitor can patch it back when the stub
      // reports a run of aligned executions.
      uint32_t CounterAddr = NextCounterCell;
      NextCounterCell += 4;
      Mem.store(CounterAddr, 4, 0);
      PatchedOriginals[F.HostPc] = {Code.word(F.HostPc), InstPc};
      S = Translator::emitStub(Code, F.Inst, F.HostPc, CounterAddr,
                               MailboxAddr, D.RevertThreshold);
    } else {
      S = Translator::emitStub(Code, F.Inst, F.HostPc);
    }
    Trace.emit(obs::TraceEventKind::StubEmitted, InstPc, T->GuestPc,
               S.Entry, Adaptive ? 1 : 0);
    if (!patchVerified(F.HostPc,
                       Translator::stubBranchWord(F.HostPc, S.Entry))) {
      // The redirect did not stick; the original instruction is still
      // in place.  Emulate this occurrence and let a later trap retry
      // the patch (or the watchdog escalate).
      if (Adaptive)
        PatchedOriginals.erase(F.HostPc);
      return Abort != RunError::None ? FaultAction::Halt
                                     : FaultAction::Fixup;
    }
    T->PatchedWords.push_back(F.HostPc);
    T->MemWordToGuestPc.erase(F.HostPc);
    Regions[S.Entry] = {S.End, T};
    T->Stubs.push_back({S.Entry, S.End});
    // A store executed out of the stub must stop the episode at the
    // same place as the body word it replaces: propagate the resume
    // metadata to every stub word.  (Loads were never recorded, so the
    // lookup fails for them and nothing is registered.)
    auto RIt = T->StoreResume.find(F.HostPc);
    if (RIt != T->StoreResume.end()) {
      SmcResume V = RIt->second; // copy: the inserts below may rehash
      for (uint32_t W = S.Entry; W != S.End; ++W)
        T->StoreResume[W] = V;
    }
    Machine.addCycles(Cost.PatchExtraCycles);
    chargeCodeGrowth(); // the stub is emitted code too
    checkBudgets();
    ++Patches;
    Trace.emit(obs::TraceEventKind::PatchApplied, InstPc, T->GuestPc,
               F.HostPc, S.Entry);
    LastPatch = F;
    HaveLastPatch = true;
    runVerifier();
    if (Abort != RunError::None)
      return FaultAction::Halt;

    if (D.Supersede)
      supersede(T);
    return FaultAction::Retry;
  }

  /// Trap-storm watchdog escalation: force progress at a site the
  /// normal policy machinery has failed to fix.  Climbs a three-rung
  /// degradation ladder per block — (1) rearrangement with the storming
  /// site force-inlined, (2) retranslation with every memory site
  /// force-inlined, (3) interpret-only pin — and always emulates the
  /// current access so the guest advances regardless.
  FaultAction engageLadder(const FaultInfo &F) {
    ++WatchdogTrips;
    ConsecutiveTraps = 0;
    if (WatchdogTrips > Hard.MaxWatchdogTrips) {
      Abort = RunError::TrapStorm;
      return FaultAction::Halt;
    }
    Translation *T = findOwner(F.HostPc);
    if (!T) {
      ++SpuriousTraps;
      Trace.emit(obs::TraceEventKind::TrapSpurious, 0, 0, F.HostPc, 3);
      return FaultAction::Fixup;
    }
    uint32_t BlockPc = T->GuestPc;
    auto It = T->MemWordToGuestPc.find(F.HostPc);
    uint32_t InstPc =
        It != T->MemWordToGuestPc.end() ? It->second : 0;
    uint32_t Rung = ++LadderRungOf[BlockPc];
    Trace.emit(obs::TraceEventKind::LadderRung, InstPc, BlockPc,
               Rung > 3 ? 3 : Rung, WatchdogTrips);
    if (Rung == 1 && InstPc != 0) {
      ForceInline.insert(InstPc);
      Policy.onWatchdogEscalation(BlockPc, InstPc, 1);
      if (T->Valid)
        supersede(T);
      ++LadderRearranges;
    } else if (Rung <= 2) {
      for (const auto &Entry : T->MemWordToGuestPc)
        ForceInline.insert(Entry.second);
      Policy.onWatchdogEscalation(BlockPc, InstPc, 2);
      if (T->Valid)
        supersede(T);
      ++LadderRetranslations;
    } else {
      InterpOnly.insert(BlockPc);
      Policy.onWatchdogEscalation(BlockPc, 0, 3);
      if (T->Valid)
        invalidate(T);
      ++LadderInterpPins;
    }
    return FaultAction::Fixup;
  }

  FaultAction onFault(const FaultInfo &F) {
    // Watchdog: consecutive traps at one host word with no intervening
    // progress (Fixup always advances Pc, so delta > 1 means the guest
    // is moving) indicate a livelock the policy cannot break.
    if (F.HostPc == LastTrapWord &&
        Machine.Instructions - LastTrapInsts <= 1) {
      ++ConsecutiveTraps;
    } else {
      ConsecutiveTraps = 1;
      LastTrapWord = F.HostPc;
    }
    LastTrapInsts = Machine.Instructions;
    if (Abort != RunError::None)
      return FaultAction::Halt;
    if (ConsecutiveTraps > WatchdogTrapK)
      return engageLadder(F);

    if (Injector && Injector->lostTrap()) {
      // The delivery is lost: the handler never runs and the faulting
      // instruction restarts — the retry storm the watchdog contains.
      ++ChaosLostTraps;
      return FaultAction::Retry;
    }
    FaultAction A = deliver(F);
    if (Abort != RunError::None)
      return FaultAction::Halt;
    if (Injector && Injector->duplicateTrap()) {
      // The same exception is delivered twice: the second delivery must
      // be recognized as stale and stay harmless.
      ++ChaosDupTraps;
      deliver(F);
      if (Abort != RunError::None)
        return FaultAction::Halt;
    }
    return A;
  }

  /// Apply a revert request posted by an adaptive stub: restore the
  /// original memory instruction.  It may trap (and be re-patched)
  /// later — that is the adaptivity loop of paper Fig. 8.
  void pollRevertMailbox() {
    uint32_t Posted = static_cast<uint32_t>(Mem.load(MailboxAddr, 4));
    if (Posted == 0)
      return;
    Mem.store(MailboxAddr, 4, 0);
    uint32_t FaultWord = Posted - 1;
    auto It = PatchedOriginals.find(FaultWord);
    if (It == PatchedOriginals.end())
      return;
    if (!patchVerified(FaultWord, It->second.first))
      return; // revert failed; the stub stays in place and stays correct
    Translation *T = findOwner(FaultWord);
    if (T)
      T->MemWordToGuestPc[FaultWord] = It->second.second;
    Trace.emit(obs::TraceEventKind::StubReverted, It->second.second,
               T ? T->GuestPc : 0, FaultWord, 0);
    PatchedOriginals.erase(It);
    MonitorCycles += Cost.ChainPatchCycles; // one store into the cache
    ++Reverts;
    runVerifier();
  }

  // -- state sync ----------------------------------------------------------

  void syncToHost() {
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Machine.R[hostGpr(I)] = Cpu.Gpr[I];
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Machine.R[hostQ(I)] = Cpu.Qreg[I];
    Machine.R[RegChecksum] = Cpu.Checksum;
  }

  void syncToGuest() {
    for (unsigned I = 0; I != guest::NumGPR; ++I)
      Cpu.Gpr[I] = static_cast<uint32_t>(Machine.R[hostGpr(I)]);
    for (unsigned I = 0; I != guest::NumQReg; ++I)
      Cpu.Qreg[I] = Machine.R[hostQ(I)];
    Cpu.Checksum = Machine.R[RegChecksum];
  }

  // -- chaining ------------------------------------------------------------

  /// Patch exit word \p W of \p Src into a direct branch to \p Target's
  /// entry and record the incoming edge.  Returns false (the exit keeps
  /// going through the monitor) if the target is out of branch range or
  /// the verified patch did not stick.
  bool chainExit(uint32_t W, const Translation *Src, Translation *Target) {
    std::optional<uint32_t> Br = branchWord(W, Target->EntryWord);
    if (!Br || !patchVerified(W, *Br))
      return false;
    Target->IncomingChains.push_back(W);
    ChainCycles += Cost.ChainPatchCycles;
    ++Chains;
    Trace.emit(obs::TraceEventKind::BlockChained, Target->GuestPc,
               Src->GuestPc, W, Target->EntryWord);
    return true;
  }

  void maybeChain(const ExitInfo &E) {
    if (!Config.EnableChaining)
      return;
    Translation *Owner = findOwner(E.SrvWord);
    if (!Owner || !Owner->Valid)
      return;
    for (ExitSite &X : Owner->Exits) {
      if (X.SrvWord != E.SrvWord)
        continue;
      if (!X.Direct || X.Chained)
        return;
      Translation *Target = liveBlock(X.TargetGuestPc);
      if (!Target || !chainExit(X.SrvWord, Owner, Target))
        return;
      X.Chained = true;
      runVerifier();
      // A backward chain closes a native loop — the hotness signal for
      // superblock formation.  (Chain events, not dispatch counts: a
      // fully chained loop never revisits the monitor, so a dispatch
      // counter would stop ticking exactly when the loop gets hot.)
      if (Config.Superblocks && Abort == RunError::None &&
          X.TargetGuestPc <= Owner->GuestPc &&
          ++BackedgeHeat[X.TargetGuestPc] >= SuperblockThreshold)
        tryFormSuperblock(X.TargetGuestPc);
      return;
    }
  }

  /// On an indirect-exit miss, fill (or refill) an inline-cache way
  /// with the observed target if it is translated (EngineConfig::
  /// InlineCaches).  Interior words are written before the guard, so a
  /// partially written way is never executable; any patch failure
  /// leaves the way disabled.
  void maybeIcFill(const ExitInfo &E) {
    if (!Config.InlineCaches || Abort != RunError::None)
      return;
    Translation *Owner = findOwner(E.SrvWord);
    if (!Owner || !Owner->Valid || Owner->IcSites.empty())
      return;
    uint32_t SiteIdx = ~0u;
    for (uint32_t I = 0; I != Owner->IcSites.size(); ++I) {
      if (Owner->IcSites[I].SrvWord == E.SrvWord) {
        SiteIdx = I;
        break;
      }
    }
    if (SiteIdx == ~0u)
      return; // a direct exit's Srv word, not an IC fallback
    IcSite &Site = Owner->IcSites[SiteIdx];
    ++IcMisses;
    Translation *Target = liveBlock(E.GuestPc);
    if (!Target)
      return; // target not translated yet; a later miss can fill
    // Victim selection: first empty way, else round-robin eviction.
    // Quarantined (Stale) ways are out of service until the next flush.
    IcWay *Way = nullptr;
    uint32_t WayIdx = 0;
    for (uint32_t I = 0; I != Site.Ways.size(); ++I) {
      if (!Site.Ways[I].Filled && !Site.Ways[I].Stale) {
        Way = &Site.Ways[I];
        WayIdx = I;
        break;
      }
    }
    bool Evicting = false;
    if (!Way) {
      uint32_t N = static_cast<uint32_t>(Site.Ways.size());
      for (uint32_t K = 0; K != N; ++K) {
        uint32_t I = (Site.NextVictim + K) % N;
        if (!Site.Ways[I].Stale) {
          Way = &Site.Ways[I];
          WayIdx = I;
          Site.NextVictim = (I + 1) % N;
          Evicting = true;
          break;
        }
      }
      if (!Way)
        return; // every way quarantined; fall back to the monitor
    }
    uint32_t FinalBr = Way->Begin + IcWayWords - 1;
    std::optional<uint32_t> Br = branchWord(FinalBr, Target->EntryWord);
    if (!Br)
      return; // out of branch range; keep going through the monitor
    if (Evicting) {
      if (!retireIcWay(*Way, Owner, 0)) {
        runVerifier();
        return; // victim quarantined; this fill attempt is abandoned
      }
    }
    // Interiors first (tag compare, miss skip, target branch), guard
    // last: the way only becomes executable once fully written.
    uint32_t Tag = Target->GuestPc;
    const std::array<uint32_t, IcWayWords> Words =
        Translator::icWayFilledWords(Tag, *Br);
    for (uint32_t K = 1; K != IcWayWords; ++K) {
      if (!patchVerified(Way->Begin + K, Words[K])) {
        // patchVerified restored the word (or quarantined the run); the
        // guard is still disabled, so the way stays safely inert.
        ++IcFillFails;
        runVerifier();
        return;
      }
    }
    if (!patchVerified(Way->Begin, Words[0])) {
      // Guard never armed, but FinalBr now holds a live branch the
      // verifier cannot tie to a filled way: scrub it.
      ++IcFillFails;
      if (!patchVerified(FinalBr,
                         Translator::icWayDisabledWord(IcWayWords - 1)))
        StaleChainWords.insert(FinalBr);
      runVerifier();
      return;
    }
    StaleChainWords.erase(FinalBr); // freshly verified content
    Way->Filled = true;
    Way->Stale = false;
    Way->TargetEntry = Target->EntryWord;
    Way->TargetGuestPc = Tag;
    Target->IncomingIcWays.push_back({Owner, SiteIdx, WayIdx});
    ChainCycles +=
        static_cast<uint64_t>(Cost.ChainPatchCycles) * IcWayWords;
    ++IcFills;
    Trace.emit(obs::TraceEventKind::DispatchIcFill, Tag, Owner->GuestPc,
               Way->Begin, Target->EntryWord);
    runVerifier();
  }

  // -- superblock formation ----------------------------------------------

  /// Re-emit the hot chain of blocks starting at \p HeadPc as one
  /// straight-line superblock (EngineConfig::Superblocks).  The trace
  /// supersedes the head block in the dispatch table; constituents'
  /// recorded MemPlans are replayed so every memory site keeps its exact
  /// MDA treatment.  De-optimization is ordinary invalidation: the trace
  /// falls back to the still-installed constituent blocks.
  void tryFormSuperblock(uint32_t HeadPc) {
    if (Abort != RunError::None || InterpOnly.count(HeadPc))
      return;
    // Trace planning replays constituent MemPlans and consults the
    // analysis for fresh sites: both must be current.
    maybeReanalyze();
    if (Abort != RunError::None)
      return;
    if (TraceFormsAt[HeadPc] >= TraceFormationLimit)
      return;
    Translation *Head = liveBlock(HeadPc);
    if (!Head || Head->IsTrace)
      return;

    // Walk direct exits from the head, preferring chained (observed
    // hot) edges, to pick the trace's constituents.
    std::vector<uint32_t> Pcs;
    std::unordered_set<uint32_t> Seen;
    std::unordered_map<uint32_t, MemPlan> Plans;
    uint32_t Pc = HeadPc;
    bool ClosedAtHead = false;
    while (Pcs.size() < SuperblockMaxBlocks) {
      Translation *T = liveBlock(Pc);
      if (!T || T->IsTrace)
        break;
      if (!Seen.insert(Pc).second) {
        ClosedAtHead = Pc == HeadPc;
        break; // closed the loop (or revisited): stop
      }
      Pcs.push_back(Pc);
      for (const auto &KV : T->PlanByPc)
        Plans.insert(KV);
      const ExitSite *Next = nullptr;
      for (const ExitSite &X : T->Exits) {
        if (!X.Direct)
          continue;
        if (X.Chained) {
          Next = &X;
          break;
        }
        if (!Next)
          Next = &X;
      }
      if (!Next)
        break; // indirect terminator: the trace ends here
      Pc = Next->TargetGuestPc;
    }
    // A loop that closes back at the head is unrolled to fill the block
    // budget: each extra copy turns the backedge's exit sequence
    // (materialize exit PC + branch) into straight-line fallthrough,
    // which is where a superblock actually earns its cycles on tight
    // loops.  Only the final copy's backedge survives, and it chains to
    // the trace's own entry like any other exit.
    // One extra copy only: each further copy saves the same few exit
    // instructions per circuit but multiplies code size (I-cache
    // pressure — exactly the locality figs. 6/11 measure) and
    // translation cycles.
    if (ClosedAtHead && Pcs.size() * 2 <= SuperblockMaxBlocks) {
      const std::vector<uint32_t> Body = Pcs;
      Pcs.insert(Pcs.end(), Body.begin(), Body.end());
    }
    if (Pcs.size() < 2)
      return; // a single-block "trace" would only re-emit the head

    ++TraceFormsAt[HeadPc];
    std::vector<GuestBlock> Blocks;
    Blocks.reserve(Pcs.size());
    for (uint32_t P : Pcs)
      Blocks.push_back(discoverBlock(Mem, P));
    // Each site gets the stronger of its recorded constituent plan and
    // the policy's current verdict: never weaker than the constituent
    // (the identity guarantee PlanByPc exists for), and never weaker
    // than what the policy has learned since — a site the constituent
    // emitted as a plain op and later patched to a stub re-emits with
    // the MDA sequence inline, like any retranslation would, instead of
    // re-faulting once per trace copy.
    Translator::PlanFn Plan = [this, &Plans](uint32_t InstPc,
                                             const guest::GuestInst &I) {
      MemPlan Fresh = planMemOp(InstPc, I);
      auto It = Plans.find(InstPc);
      if (It == Plans.end() || It->second == MemPlan::Normal)
        return Fresh;
      return It->second; // keep the constituent's MDA treatment
    };
    bool Copied = false;
    Translation *Tr = acquireOrTranslate(Blocks, Plan, Head->Generation + 1,
                                         /*IsTrace=*/true, Copied);
    if (!Tr)
      return; // constituents stay in service; no harm done
    TraceBlocksEmitted += Pcs.size();
    if (!installCode(Tr, Copied, TracesFormed,
                     obs::TraceEventKind::TraceFormed, Pcs.size(),
                     Tr->EntryWord)) {
      // Stop trying to form a trace at this head.
      TraceFormsAt[HeadPc] = TraceFormationLimit;
      runVerifier();
      return;
    }
    // Capture the head's incoming chains before invalidation unchains
    // them: an unchained source never re-chains on its own, so without
    // redirection every former backedge would round-trip through the
    // monitor forever — the opposite of what the trace is for.
    const std::vector<uint32_t> Incoming = Head->IncomingChains;
    invalidate(Head);
    Dispatch.insert(HeadPc, Tr);
    for (uint32_t W : Incoming) {
      if (StaleChainWords.count(W))
        continue; // the unchain did not stick; leave it quarantined
      Translation *Src = findOwner(W);
      if (Src && Src->Valid) // else the head's own backedge, or dead
        chainExit(W, Src, Tr);
    }
    runVerifier();
  }

  // -- members ---------------------------------------------------------------

  MdaPolicy &Policy;
  const EngineConfig &Config;
  const CostModel &Cost;
  const HardeningConfig &Hard;

  guest::GuestMemory Mem;
  guest::GuestCPU Cpu;
  guest::Interpreter Interp;
  CodeSpace Code;
  MemoryHierarchy Hier;
  HostMachine Machine;
  InterpProfiler Profiler;

  // -- observability -----------------------------------------------------

  /// TraceClock: the monotonic virtual time every trace event carries —
  /// the same cycle aggregation RunResult::Cycles reports at end of run.
  uint64_t now() const override {
    return Machine.Cycles + InterpCycles + TranslateCycles +
           MonitorCycles + ChainCycles;
  }

  obs::Tracer Trace;
  obs::MetricsRegistry Reg;
  /// Histogram handles resolved once; hot paths record through these
  /// rather than by-name lookups.
  obs::Histogram *HTransInsts;
  obs::Histogram *HTrapBlock;
  obs::Histogram *HInterpInsts;

  std::unordered_map<uint32_t, uint32_t> Heat;
  std::deque<Translation> Store;
  /// Host-word region -> owning translation (bodies and stubs).
  std::map<uint32_t, std::pair<uint32_t, Translation *>> Regions;

  /// The engine's one guest-PC -> live translation map, kept coherent
  /// at install/invalidate/flush.  EngineConfig::HashDispatch only
  /// selects how a monitor lookup in it is priced.
  DispatchTable Dispatch;
  /// Backward-chain events per loop-head PC (superblock hotness).
  std::unordered_map<uint32_t, uint32_t> BackedgeHeat;
  /// Formation attempts per head PC (bounds retry after de-opt).
  std::unordered_map<uint32_t, uint32_t> TraceFormsAt;

  /// Adaptive-revert runtime state (paper Fig. 8, right).
  static constexpr uint32_t MailboxAddr = guest::layout::RuntimeBase;
  uint32_t NextCounterCell = guest::layout::RuntimeBase + 8;
  /// Adaptively patched word -> (original word, guest inst PC).
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>>
      PatchedOriginals;

  /// Fault injection (chaos campaigns); disengaged in normal runs.
  std::optional<chaos::FaultInjector> Injector;
  bool ChaosPatchArmed = false;
  /// Most recent successfully patched fault, replayed by the spurious
  /// (stale re-delivery) injection point.
  FaultInfo LastPatch;
  bool HaveLastPatch = false;

  /// Static alignment analysis (EngineConfig::Analysis); empty when
  /// disabled.  Also implied by EngineConfig::Aot != Off.
  std::optional<analysis::AnalysisResult> Ana;

  // -- static AOT pre-translation state (EngineConfig::Aot) --------------

  /// Statically recovered CFG of the pristine image (Aot != Off only).
  std::optional<analysis::CfgResult> AotCfg;
  /// AotCfg's merged reachable byte ranges in the verifier's region
  /// form (HostVerifier check 10), sorted and disjoint.
  std::vector<analysis::VerifierRegion> AotReachable;
  /// The pre-translator; emplaced by aotStartup() before the first
  /// guest instruction.
  std::optional<AotTranslator> Aot;
  /// Mirror of the write-watch page refcounts held for pending AOT
  /// units: flushAll()'s drain assertion and stale-unit unwatching.
  std::unordered_map<uint32_t, uint32_t> AotWatchRef;
  /// First-touch dynamic block heads (coverage accounting: a head the
  /// monitor ever dispatches is either statically covered or a flagged
  /// fallback).
  std::unordered_set<uint32_t> DynHeads;
  uint64_t AotInstalls = 0;
  uint64_t AotCoveredHeads = 0;
  uint64_t AotFallbackBlocks = 0;
  uint64_t AotStartupCycles = 0;

  /// Chain-exit words whose unchain patch failed under fault injection:
  /// quarantined from the verifier's liveness checks until the next
  /// flush (see invalidate()).
  std::unordered_set<uint32_t> StaleChainWords;

  /// The code-cache verifier (EngineConfig::Verify and AOT's forced
  /// sweeps), created at the first sweep and kept for the run: it
  /// re-checks only what changed since its last clean sweep.
  std::optional<analysis::CodeVerifier> Verifier;
  /// runVerifier()'s input, rebuilt in place every sweep.
  analysis::VerifierInput VerifyIn;

  // -- guest-code coherence state ----------------------------------------

  /// Live translations indexed by guest watch page (GuestMemory::
  /// WatchPageShift granularity): the write barrier's victim lookup.
  std::unordered_map<uint32_t, std::vector<Translation *>> TrackedByPage;
  /// Guest-store epoch: bumped once per barrier-visible store.  Dirty
  /// bytes and Translation::BornEpoch are stamped with it.
  uint64_t StoreEpoch = 0;
  /// Dirtied guest code byte -> epoch of the store that dirtied it.
  /// Byte-granular on purpose: two translations can share one watch
  /// page, and the verifier must not flag the live neighbour of a
  /// rewritten range.  Bounded by distinct dirtied bytes on watched
  /// pages (only those reach the barrier).
  std::unordered_map<uint32_t, uint64_t> ByteDirtyEpoch;
  /// Re-entrancy guard for the write barrier.
  bool InSmcBarrier = false;
  /// Inside SMC-triggered invalidation: failed unchain/IC-retire
  /// patches abort instead of quarantining (see invalidate()).
  bool SmcStrict = false;
  /// Guest code bytes changed since the last analysis pass; re-run
  /// lazily at the next safe point (maybeReanalyze).
  bool AnaStale = false;
  /// SMC invalidations per block PC (BudgetConfig::SmcChurnPinLimit).
  std::unordered_map<uint32_t, uint32_t> SmcInvalsAt;
  /// Re-analysis anchor (the image's entry and initial stack top).
  uint32_t EntryPc = 0;
  uint32_t StackTopAddr = 0;

  /// Degradation-ladder state.
  std::unordered_set<uint32_t> ForceInline; ///< inst PCs forced Inline
  std::unordered_set<uint32_t> InterpOnly;  ///< block PCs never translated
  std::unordered_map<uint32_t, uint32_t> LadderRungOf; ///< block -> rung
  std::unordered_map<uint32_t, uint32_t> TranslateFailsAt;
  RunError Abort = RunError::None;

  /// Trap-storm watchdog state.
  uint32_t LastTrapWord = ~0u;
  uint64_t LastTrapInsts = 0;
  uint32_t ConsecutiveTraps = 0;

  uint64_t StepIndex = 0;
  uint64_t LastFlushStep = 0;

  uint64_t InterpCycles = 0;
  uint64_t TranslateCycles = 0;
  uint64_t MonitorCycles = 0;
  uint64_t ChainCycles = 0;
  uint64_t InterpInsts = 0;
  uint64_t InterpRefs = 0;
  uint64_t InterpBlocks = 0;
  uint64_t Translations = 0;
  uint64_t Supersedes = 0;
  uint64_t Patches = 0;
  uint64_t Chains = 0;
  uint64_t Reverts = 0;
  uint64_t Flushes = 0;
  uint64_t NativeEntries = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t LadderRearranges = 0;
  uint64_t LadderRetranslations = 0;
  uint64_t LadderInterpPins = 0;
  uint64_t OversizedPins = 0;
  uint64_t SpuriousTraps = 0;
  uint64_t PatchRepairs = 0;
  uint64_t PatchFailures = 0;
  uint64_t TranslateFailures = 0;
  uint64_t FlushesSuppressed = 0;
  uint64_t StubDowngrades = 0;
  uint64_t ChaosLostTraps = 0;
  uint64_t ChaosDupTraps = 0;
  uint64_t ChaosSpurious = 0;
  uint64_t ChaosPatchDrops = 0;
  uint64_t ChaosPatchTears = 0;
  uint64_t ChaosTranslateFails = 0;
  uint64_t ChaosFlushStorms = 0;
  uint64_t PlanAlignedElides = 0;
  uint64_t PlanInlineForced = 0;
  uint64_t TableHits = 0;
  uint64_t TableMisses = 0;
  uint64_t TableProbes = 0;
  uint64_t IcFills = 0;
  uint64_t IcMisses = 0;
  uint64_t IcEvictions = 0;
  uint64_t IcFillFails = 0;
  uint64_t TracesFormed = 0;
  uint64_t TraceBlocksEmitted = 0;
  uint64_t TraceDeopts = 0;
  uint64_t FusionSites = 0;
  uint64_t FusionSavedWords = 0;
  uint64_t FusionBlocks = 0;
  uint64_t VerifyPasses = 0;
  uint64_t VerifyWords = 0;
  uint64_t VerifyIssues = 0;
  uint64_t SmcStores = 0;
  uint64_t SmcInvalidations = 0;
  uint64_t SmcReanalyses = 0;
  uint64_t SmcVerdictsRevoked = 0;
  uint64_t SmcChurnPins = 0;
  uint64_t SmcEpisodeStops = 0;
  // -- serving state (EngineConfig::Service) -----------------------------

  /// The process-wide translation service, or null for isolated runs.
  TranslationService *Service = nullptr;
  /// Shared-cache leases held by this run, one per service-installed
  /// translation.  Erased on invalidate/flush and drained wholesale at
  /// end of run, so the cache's live-lease count returns to this run's
  /// pre-existing level no matter how the run ended.
  std::unordered_map<const Translation *, TranslationLease> Leases;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  uint64_t CacheHitInsts = 0;

  /// True while Machine.run() is on the stack: a write-barrier hit
  /// then means the store was issued by the running translation.
  bool InNative = false;
  /// Cumulative emitted host-code bytes (monotone across flushes).
  uint64_t CodeBytesEmitted = 0;
  /// Arena size at the last chargeCodeGrowth() sample.
  uint32_t LastCodeWords = 0;
  bool PendingFlush = false;
};

RunResult ExecutionContext::run() {
  RunResult R;
  bool Guarded = false;
  Trace.emit(obs::TraceEventKind::RunBegin, Cpu.Pc, 0,
             Policy.hotThreshold(), Injector ? 1 : 0);

  // Static AOT pre-translation: populate (and under Full, install) the
  // code cache before the first guest instruction executes.
  if (Config.Aot != AotMode::Off)
    aotStartup();

  while (!Cpu.Halted) {
    if (++StepIndex > Config.MaxMonitorSteps) {
      Guarded = true;
      break;
    }
    if (Abort != RunError::None)
      break;

    if (Injector) {
      if (Injector->flushStorm()) {
        ++ChaosFlushStorms;
        // Flush-storm backoff: absorb requests arriving faster than
        // the cache can usefully refill.
        if (StepIndex - LastFlushStep >= Hard.FlushStormBackoffSteps)
          PendingFlush = true;
        else
          ++FlushesSuppressed;
      }
      if (HaveLastPatch && Injector->spuriousTrap()) {
        // Stale re-delivery of an already-handled exception: it must be
        // recognized as such and rejected.
        ++ChaosSpurious;
        Machine.addCycles(Cost.TrapCycles);
        deliver(LastPatch);
        if (Abort != RunError::None)
          break;
      }
    }

    if (PendingFlush) {
      flushAll();
      if (Abort != RunError::None)
        break;
    }

    // Guest code changed since the last analysis pass: re-analyze and
    // revoke stale Elide verdicts before dispatching anything compiled
    // under the old proofs.
    maybeReanalyze();
    if (Abort != RunError::None)
      break;

    // AOT coverage accounting: every executed head reaches this point
    // at least once before any chain or inline cache can bypass the
    // monitor, so first touch here decides statically-covered vs.
    // dynamically-discovered exactly once per head.
    if (Aot && DynHeads.insert(Cpu.Pc).second) {
      if (AotCfg->contains(Cpu.Pc)) {
        ++AotCoveredHeads;
      } else {
        ++AotFallbackBlocks;
        Trace.emit(obs::TraceEventKind::AotFallback, Cpu.Pc, Cpu.Pc,
                   AotFallbackBlocks, 0);
      }
    }

    uint32_t Probes = 0;
    Translation *T = Dispatch.lookup(Cpu.Pc, Probes);
    if (Config.HashDispatch) {
      // Hash-table pricing: one open-addressed probe chain instead of
      // the modeled ordered-map walk; each probe is priced individually.
      TableProbes += Probes;
      if (T) {
        ++TableHits;
        MonitorCycles +=
            Cost.DispatchTableHitCycles +
            static_cast<uint64_t>(Probes - 1) * Cost.DispatchProbeCycles;
      } else {
        // Miss: like the baseline ordered-map pricing, the failed lookup is
        // folded into the interpretation/translation episode it starts
        // (charging it here would penalize the table for misses the
        // baseline never prices).  Probes are still counted.
        ++TableMisses;
      }
    } else if (T) {
      MonitorCycles += Cost.MonitorDispatchCycles;
    }

    // Dispatch miss with a pending pre-translated unit: install it now,
    // before any heating — statically covered code never pays the
    // interpretation phase (the Hybrid install path; Full reaches it
    // only for units a capacity flush spilled back to pending).
    if (!T && Aot) {
      AotTranslator::Unit *U = Aot->find(Cpu.Pc);
      if (U && !U->Stale && !InterpOnly.count(Cpu.Pc)) {
        if (!flushIfFull())
          break;
        T = installAotUnit(*U, /*Sweep=*/true);
        if (Abort != RunError::None)
          break;
      }
    }

    if (T) {
      syncToHost();
      ++NativeEntries;
      InNative = true;
      ExitInfo E = Machine.run(T->EntryWord);
      InNative = false;
      syncToGuest();
      if (E.K == ExitInfo::Stop) {
        // SMC episode stop: the guest store invalidated the running
        // translation; resume by fresh dispatch at the next guest
        // instruction.  No chain/IC bookkeeping — the exit was
        // synthetic, not a Srv Exit word.
        Cpu.Pc = E.GuestPc;
        continue;
      }
      if (E.K == ExitInfo::Halt) {
        if (Abort == RunError::None)
          Cpu.Halted = true;
        break;
      }
      if (E.K == ExitInfo::Limit) {
        Guarded = true;
        break;
      }
      Cpu.Pc = E.GuestPc;
      pollRevertMailbox();
      maybeChain(E);
      maybeIcFill(E);
      continue;
    }

    if (!InterpOnly.count(Cpu.Pc)) {
      uint32_t H = ++Heat[Cpu.Pc];
      if (H > Policy.hotThreshold()) {
        // The block crossed the heating threshold: phase 1
        // (interpretation) -> phase 2 (native execution) for this PC.
        Trace.emit(obs::TraceEventKind::PhaseTransition, Cpu.Pc, Cpu.Pc,
                   H, 0);
        if (installTranslation(Cpu.Pc, /*Generation=*/0,
                               /*AllowFlush=*/true))
          continue; // dispatch natively on the next iteration
        if (Abort != RunError::None)
          break;
        // Translation failed: fall through and interpret this block so
        // the guest still makes forward progress.
      }
    }

    // Phase 1: interpret one dynamic basic block, profiling as we go.
    uint32_t BlockPc = Cpu.Pc;
    uint64_t N = Interp.stepBlock(Cpu);
    InterpInsts += N;
    ++InterpBlocks;
    InterpCycles += N * Cost.InterpCyclesPerInst;
    HInterpInsts->record(N);
    if (Trace.enabled())
      Trace.emit(obs::TraceEventKind::BlockInterpreted, BlockPc, BlockPc,
                 N, Heat[BlockPc]);
  }

  // One final sweep over whatever the cache holds at end of run.
  runVerifier();

  RunError Err = Abort;
  if (Err == RunError::None && (Guarded || !Cpu.Halted))
    Err = RunError::MonitorStepLimit;
  R.Error = Err;
  R.FinalCpu = Cpu;
  R.Checksum = Cpu.Checksum;
  // The BT-runtime scratch cells (revert counters) are not part of the
  // guest-visible state: zero them so the memory hash is comparable
  // with a pure-interpreter run.
  if (NextCounterCell > guest::layout::RuntimeBase)
    std::memset(Mem.data() + guest::layout::RuntimeBase, 0,
                NextCounterCell - guest::layout::RuntimeBase);
  R.MemoryHash = fnv1a(Mem.data(), Mem.size());
  R.Cycles = now();
  Trace.emit(obs::TraceEventKind::RunEnd, Cpu.Pc, 0,
             static_cast<uint64_t>(Err), R.Cycles);
  if (Config.Trace)
    Config.Trace->flush();

  // Blocks still in service at end of run never pass through
  // invalidate(): fold their trap counts into the distribution here.
  for (Translation &T : Store)
    if (T.Valid)
      HTrapBlock->record(T.FaultCount);

  // The registry is the authoritative record; the legacy CounterBag is
  // derived from it below so the two views agree by construction.
  Reg.addCounter("cycles.total", R.Cycles);
  Reg.addCounter("cycles.native", Machine.Cycles);
  Reg.addCounter("cycles.interp", InterpCycles);
  Reg.addCounter("cycles.translate", TranslateCycles);
  Reg.addCounter("cycles.monitor", MonitorCycles);
  Reg.addCounter("cycles.chain", ChainCycles);
  Reg.addCounter("cycles.traps",
                 Machine.Faults * Cost.TrapCycles +
                     Machine.Fixups * Cost.FixupExtraCycles +
                     Patches * Cost.PatchExtraCycles);
  Reg.addCounter("interp.insts", InterpInsts);
  Reg.addCounter("interp.refs", InterpRefs);
  Reg.addCounter("interp.blocks", InterpBlocks);
  Reg.addCounter("host.insts", Machine.Instructions);
  Reg.addCounter("host.loads", Machine.Loads);
  Reg.addCounter("host.stores", Machine.Stores);
  Reg.addCounter("host.l1i_misses", Hier.L1I.misses());
  Reg.addCounter("host.l1d_misses", Hier.L1D.misses());
  Reg.addCounter("host.l2_misses", Hier.L2.misses());
  Reg.addCounter("dbt.translations", Translations);
  Reg.addCounter("dbt.supersedes", Supersedes);
  Reg.addCounter("dbt.patches", Patches);
  Reg.addCounter("dbt.chains", Chains);
  Reg.addCounter("dbt.reverts", Reverts);
  Reg.addCounter("dbt.flushes", Flushes);
  Reg.addCounter("dbt.native_entries", NativeEntries);
  Reg.addCounter("dbt.fault_traps", Machine.Faults);
  Reg.addCounter("dbt.fixups", Machine.Fixups);
  Reg.setGauge("dbt.code_words", Code.size());
  Reg.setGauge("run.error", static_cast<uint64_t>(Err));
  Reg.addCounter("harden.watchdog_trips", WatchdogTrips);
  Reg.addCounter("harden.ladder_rearrange", LadderRearranges);
  Reg.addCounter("harden.ladder_retranslate", LadderRetranslations);
  Reg.addCounter("harden.ladder_interp_only", LadderInterpPins);
  Reg.addCounter("harden.oversized_pins", OversizedPins);
  Reg.setGauge("harden.interp_only_blocks", InterpOnly.size());
  Reg.addCounter("harden.spurious_traps", SpuriousTraps);
  Reg.addCounter("harden.patch_repairs", PatchRepairs);
  Reg.addCounter("harden.patch_failures", PatchFailures);
  Reg.addCounter("harden.translate_failures", TranslateFailures);
  Reg.addCounter("harden.flush_suppressed", FlushesSuppressed);
  Reg.addCounter("harden.stub_downgrades", StubDowngrades);
  Reg.addCounter("smc.stores", SmcStores);
  Reg.addCounter("smc.invalidations", SmcInvalidations);
  Reg.addCounter("smc.reanalyses", SmcReanalyses);
  Reg.addCounter("smc.verdicts_revoked", SmcVerdictsRevoked);
  Reg.addCounter("smc.churn_pins", SmcChurnPins);
  Reg.addCounter("smc.episode_stops", SmcEpisodeStops);
  Reg.addCounter("budget.code_bytes_emitted", CodeBytesEmitted);
  if (Service) {
    Reg.addCounter("cache.hits", CacheHits);
    Reg.addCounter("cache.misses", CacheMisses);
    Reg.addCounter("cache.evictions", CacheEvictions);
    Reg.addCounter("cache.hit_insts", CacheHitInsts);
  }
  if (Config.HashDispatch) {
    Reg.addCounter("dispatch.table_hits", TableHits);
    Reg.addCounter("dispatch.table_misses", TableMisses);
    Reg.addCounter("dispatch.table_probes", TableProbes);
    Reg.addCounter("dispatch.table_inserts", Dispatch.inserts());
    Reg.addCounter("dispatch.table_erases", Dispatch.erases());
    Reg.addCounter("dispatch.table_rehashes", Dispatch.rehashes());
    Reg.setGauge("dispatch.table_capacity", Dispatch.capacity());
    Reg.setGauge("dispatch.table_tombstones", Dispatch.tombstones());
  }
  if (Config.InlineCaches) {
    Reg.addCounter("dispatch.ic_fills", IcFills);
    Reg.addCounter("dispatch.ic_misses", IcMisses);
    Reg.addCounter("dispatch.ic_evictions", IcEvictions);
    Reg.addCounter("dispatch.ic_fill_fails", IcFillFails);
  }
  if (Config.Superblocks) {
    Reg.addCounter("trace.formed", TracesFormed);
    Reg.addCounter("trace.blocks_emitted", TraceBlocksEmitted);
    Reg.addCounter("trace.deopts", TraceDeopts);
  }
  if (Config.Fusion) {
    Reg.addCounter("fusion.sites", FusionSites);
    Reg.addCounter("fusion.saved_words", FusionSavedWords);
    Reg.addCounter("fusion.blocks", FusionBlocks);
  }
  if (Ana) {
    Reg.addCounter("analysis.blocks", Ana->Blocks);
    Reg.addCounter("analysis.mem_sites", Ana->Sites.size());
    Reg.addCounter("analysis.provably_aligned", Ana->NumAligned);
    Reg.addCounter("analysis.provably_misaligned", Ana->NumMisaligned);
    Reg.addCounter("analysis.unknown", Ana->NumUnknown);
    Reg.addCounter("analysis.poisoned", Ana->Poisoned ? 1 : 0);
    Reg.addCounter("analysis.plan_aligned_elides", PlanAlignedElides);
    Reg.addCounter("analysis.plan_inline_forced", PlanInlineForced);
  }
  if (Config.Verify) {
    Reg.addCounter("verify.passes", VerifyPasses);
    Reg.addCounter("verify.words", VerifyWords);
    Reg.addCounter("verify.issues", VerifyIssues);
  }
  if (Config.Aot != AotMode::Off) {
    const AotTranslator::Stats &AS = Aot->stats();
    Reg.addCounter("aot.blocks", AS.RecoveredBlocks);
    Reg.addCounter("aot.frontier_sites", AS.FrontierSites);
    Reg.addCounter("aot.translated", AS.Translated);
    Reg.addCounter("aot.from_cache", AS.FromCache);
    Reg.addCounter("aot.installed", AotInstalls);
    Reg.addCounter("aot.covered_blocks", AotCoveredHeads);
    Reg.addCounter("aot.fallback_blocks", AotFallbackBlocks);
    Reg.addCounter("aot.stale_dropped", AS.StaleDropped);
    Reg.addCounter("aot.startup_cycles", AotStartupCycles);
    uint64_t Heads = AotCoveredHeads + AotFallbackBlocks;
    Reg.setGauge("aot.coverage_pct",
                 Heads ? (AotCoveredHeads * 100) / Heads : 100);
  }
  if (Injector) {
    Reg.addCounter("chaos.injected", Injector->injected());
    Reg.addCounter("chaos.lost_traps", ChaosLostTraps);
    Reg.addCounter("chaos.dup_traps", ChaosDupTraps);
    Reg.addCounter("chaos.spurious_traps", ChaosSpurious);
    Reg.addCounter("chaos.patch_drops", ChaosPatchDrops);
    Reg.addCounter("chaos.patch_tears", ChaosPatchTears);
    Reg.addCounter("chaos.translate_fail", ChaosTranslateFails);
    Reg.addCounter("chaos.flush_storms", ChaosFlushStorms);
  }
  Reg.fillCounterBag(R.Counters);
  R.Metrics = std::move(Reg);
  return R;
}

} // namespace

RunResult mdabt::dbt::executeRun(const guest::GuestImage &Image,
                                 MdaPolicy &Policy,
                                 const EngineConfig &Config) {
  ExecutionContext Ctx(Image, Policy, Config);
  return Ctx.run();
}
