//===- dbt/AotTranslator.cpp - Static AOT pre-translation -----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "dbt/AotTranslator.h"

#include "dbt/GuestBlock.h"
#include "dbt/TranslationCapture.h"

#include <utility>

using namespace mdabt;
using namespace mdabt::dbt;

AotTranslator::AotTranslator(const guest::GuestMemory &Mem,
                             const analysis::CfgResult &Cfg,
                             Translator::PlanFn Plan, TranslationOpts Opts,
                             TranslationService *Service,
                             const host::CostModel &Cost)
    : Mem(Mem), Cfg(Cfg), Plan(std::move(Plan)), Opts(Opts),
      Service(Service), Cost(Cost) {
  S.RecoveredBlocks = Cfg.Blocks.size();
  S.FrontierSites = Cfg.Frontier.size();
}

void AotTranslator::pretranslateAll() {
  // PC order (CfgResult::Blocks is an ordered map): payload production,
  // publish order and modeled startup cost are all deterministic.
  for (const auto &KV : Cfg.Blocks) {
    const analysis::CfgBlock &B = KV.second;
    // Re-discover through the same decoder the demand path uses; a
    // proven block decodes by construction.
    GuestBlock GB = discoverBlock(Mem, B.StartPc);
    Acquired A = acquireOrTranslate(
        Mem, &GB, 1, Plan, Opts, /*IsTrace=*/false, Service,
        [&] { return Translator::translate(GB, Plan, Opts); });
    Unit U;
    U.GuestPc = B.StartPc;
    // Warm start when FromCache: a previous run, the disk artifact or a
    // concurrent tenant already produced these exact words.
    U.FromCache = A.FromCache;
    if (A.FromCache) {
      ++S.FromCache;
    } else {
      ++S.Translated;
      S.StartupTranslateCycles +=
          static_cast<uint64_t>(GB.size()) * Cost.TranslateCyclesPerInst;
    }
    U.Payload = A.Lease ? A.Lease.get() : std::move(A.Local);
    U.Lease = std::move(A.Lease);
    S.GuestInsts += GB.size();
    Units.emplace(B.StartPc, std::move(U));
  }
}

AotTranslator::Unit *AotTranslator::find(uint32_t Pc) {
  auto It = Units.find(Pc);
  return It == Units.end() ? nullptr : &It->second;
}

std::vector<uint32_t> AotTranslator::noteGuestStore(uint32_t Addr,
                                                    uint32_t Size) {
  std::vector<uint32_t> Staled;
  for (auto &[Pc, U] : Units)
    if (overlapsAny(U.Payload.GuestRanges, Addr, Addr + Size) && retire(U))
      Staled.push_back(Pc);
  return Staled;
}

bool AotTranslator::drop(uint32_t Pc) {
  Unit *U = find(Pc);
  return U && retire(*U);
}

std::vector<uint32_t> AotTranslator::dropAll() {
  std::vector<uint32_t> Staled;
  for (auto &[Pc, U] : Units)
    if (retire(U))
      Staled.push_back(Pc);
  return Staled;
}

bool AotTranslator::retire(Unit &U) {
  if (U.Stale)
    return false;
  U.Stale = true;
  U.Lease.release();
  ++S.StaleDropped;
  return true;
}
