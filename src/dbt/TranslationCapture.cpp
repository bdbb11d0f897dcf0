//===- dbt/TranslationCapture.cpp - Content keys + install ----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/TranslationCapture.h"

#include "dbt/FusionRules.h"

#include <vector>

using namespace mdabt;
using namespace mdabt::dbt;

CacheKey mdabt::dbt::translationContentKey(
    const guest::GuestMemory &Mem, const GuestBlock *Blocks, size_t NBlocks,
    const Translator::PlanFn &Plan,
    const TranslationOpts &Opts, bool IsTrace) {
  std::vector<uint8_t> M;
  auto Put8 = [&M](uint8_t V) { M.push_back(V); };
  auto Put32 = [&M](uint32_t V) {
    for (int S = 0; S != 32; S += 8)
      M.push_back(static_cast<uint8_t>(V >> S));
  };
  Put8(static_cast<uint8_t>(SharedTranslationCache::FormatVersion));
  Put8(IsTrace ? 1 : 0);
  Put8(Opts.BlockMultiVersion ? 1 : 0);
  Put8(static_cast<uint8_t>(Opts.IcWays));
  // Fusion changes emitted words without changing guest bytes or
  // plans, so the enabled-rule mask and the rule-table version are
  // part of the content key: a fused translation can never alias a
  // differently-fused (or differently-versioned) entry.
  Put8(Opts.FusionMask != 0 ? 1 : 0);
  Put8(FusionRuleTableVersion);
  Put32(Opts.FusionMask);
  Put32(static_cast<uint32_t>(NBlocks));
  for (size_t BI = 0; BI != NBlocks; ++BI) {
    const GuestBlock &B = Blocks[BI];
    uint32_t Len = B.endPc() - B.StartPc;
    Put32(B.StartPc);
    Put32(Len);
    // The raw guest bytes: SMC rewrites change the key, so a hostile
    // tenant's rewritten block can only miss — it can never collide
    // into (or poison) the entry other tenants execute.
    M.insert(M.end(), Mem.data() + B.StartPc, Mem.data() + B.StartPc + Len);
    for (size_t I = 0; I != B.Insts.size(); ++I) {
      const guest::GuestInst &Inst = B.Insts[I];
      // Mirror the translator's planned-site predicate exactly: only
      // sites it would consult the plan for contribute to the key.
      if (!guest::isMemoryOp(Inst.Op) || guest::accessSize(Inst.Op) < 2)
        continue;
      Put32(B.InstPcs[I]);
      Put8(static_cast<uint8_t>(Plan(B.InstPcs[I], Inst)));
    }
  }
  return cacheKeyFromBytes(M.data(), M.size());
}

Translation mdabt::dbt::installPayload(host::CodeSpace &Code,
                                       const CachedTranslation &P,
                                       uint32_t Generation) {
  uint32_t Base = Code.size();
  for (uint32_t W : P.Words)
    Code.append(W);
  Translation T;
  T.GuestPc = P.GuestPc;
  T.EntryWord = Base;
  T.EndWord = Base + static_cast<uint32_t>(P.Words.size());
  for (const CachedTranslation::RelExit &E : P.Exits)
    T.Exits.push_back({Base + E.Word, E.TargetGuestPc, E.Direct != 0,
                       /*Chained=*/false});
  for (const auto &MW : P.MemWordToGuestPc)
    T.MemWordToGuestPc[Base + MW.first] = MW.second;
  for (const CachedTranslation::RelResume &R : P.StoreResume)
    T.StoreResume[Base + R.Word] = {Base + R.EndWord, R.ResumePc};
  T.GuestInsts = P.GuestInsts;
  T.Generation = Generation;
  for (const CachedTranslation::RelIcSite &S : P.IcSites) {
    IcSite Site;
    Site.SrvWord = Base + S.SrvWord;
    Site.Ways.resize(S.WayBegins.size());
    for (size_t I = 0; I != S.WayBegins.size(); ++I)
      Site.Ways[I].Begin = Base + S.WayBegins[I];
    T.IcSites.push_back(std::move(Site));
  }
  for (const auto &PP : P.PlanByPc)
    T.PlanByPc[PP.first] = static_cast<MemPlan>(PP.second);
  T.IsTrace = P.IsTrace != 0;
  T.Constituents = P.Constituents;
  T.GuestRanges = P.GuestRanges;
  for (const CachedTranslation::RelFusedSite &F : P.FusedSites) {
    FusedSite S;
    S.Rule = F.Rule;
    S.GuestLen = F.GuestLen;
    S.Begin = Base + F.Begin;
    S.End = Base + F.End;
    S.GuestPc = F.GuestPc;
    S.SavedWords = F.SavedWords;
    // The payload is the pristine translator output, so the fused
    // core's reference words come straight from it.
    S.Words.assign(P.Words.begin() + F.Begin, P.Words.begin() + F.End);
    T.FusedSites.push_back(std::move(S));
  }
  return T;
}

Acquired mdabt::dbt::acquireOrTranslate(
    const guest::GuestMemory &Mem, const GuestBlock *Blocks, size_t NBlocks,
    const Translator::PlanFn &Plan, const TranslationOpts &Opts, bool IsTrace,
    TranslationService *Service,
    const std::function<CachedTranslation()> &Produce) {
  Acquired A;
  A.Key = translationContentKey(Mem, Blocks, NBlocks, Plan, Opts, IsTrace);
  if (Service)
    A.Lease = Service->acquire(A.Key);
  if (A.Lease) {
    A.FromCache = true;
    return A;
  }
  if (Service)
    A.Lease = Service->publish(A.Key, Produce(), &A.Evicted);
  else
    A.Local = Produce();
  return A;
}
