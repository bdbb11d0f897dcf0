//===- dbt/TranslationCapture.h - Content keys + install -------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way translated code enters a run's code cache, and the
/// serving layer's byte-identity contract.  Every producer — the
/// per-run demand and superblock paths (`ExecutionContext`) and the
/// static AOT pre-translator (`AotTranslator`) — gets a relocatable
/// payload (`CachedTranslation`) from the translator or the shared
/// cache, and every payload reaches an arena through one function:
///
///  * `translationContentKey` serializes everything that determines the
///    translator's emission for one (multi-)block — format version,
///    trace-ness, block-level options including the fusion mask, each
///    constituent's raw guest bytes, and the MemPlan the plan chain
///    returns for every planned site — and hashes it into the 128-bit
///    cache key;
///  * `acquireOrTranslate` keys a (multi-)block, leases a cached entry
///    on a hit, and on a miss produces the payload locally and, with a
///    service, publishes it;
///  * `installPayload` appends a payload's words at an arena's tail and
///    rebases its metadata into a `Translation` — the only code that
///    places translated block words.
///
/// Because a demand block, a trace, a shared-cache hit and an AOT unit
/// are the same payload installed the same way, an AOT-published entry
/// is byte-for-byte the entry a demand translation of the same bytes
/// under the same plans would publish: warm start, disk persistence and
/// multi-tenant sharing work unchanged whichever side produced it.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_TRANSLATIONCAPTURE_H
#define MDABT_DBT_TRANSLATIONCAPTURE_H

#include "dbt/GuestBlock.h"
#include "dbt/TranslationService.h"
#include "dbt/Translator.h"
#include "guest/GuestMemory.h"
#include "host/CodeSpace.h"

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mdabt {
namespace dbt {

/// Content key of the translation of \p Blocks (NBlocks == 1 for a
/// plain block, > 1 for a superblock trace) under \p Plan and \p Opts.
/// Two callers arriving at the same key are guaranteed the same emitted
/// host words.
CacheKey translationContentKey(const guest::GuestMemory &Mem,
                               const GuestBlock *Blocks, size_t NBlocks,
                               const Translator::PlanFn &Plan,
                               const TranslationOpts &Opts, bool IsTrace);

/// The install step: append \p P's words at \p Code's tail and return
/// the translation record with every piece of metadata rebased onto the
/// new entry word.  The copy is private to \p Code's run: chains, MDA
/// stubs and inline-cache fills never touch \p P.  (The words are
/// position-independent: all translator-internal control flow is
/// PC-relative and exits materialize guest PCs as data, so a straight
/// word copy is a correct relocation.)  \p Generation tags
/// retranslations (0 for the first translation of a block).
Translation installPayload(host::CodeSpace &Code, const CachedTranslation &P,
                           uint32_t Generation);

/// What acquireOrTranslate() did for one block or trace.
struct Acquired {
  CacheKey Key;
  /// The shared entry: the one hit, or the one the miss published.
  /// Empty when no service is attached.
  TranslationLease Lease;
  /// The locally produced payload when no service is attached.
  CachedTranslation Local;
  /// A hit: Lease.get() holds the words and nothing was translated.
  bool FromCache = false;
  /// Entries the miss's publish evicted to make room.
  uint64_t Evicted = 0;

  /// The payload to install.
  const CachedTranslation &payload() const {
    return Lease ? Lease.get() : Local;
  }
};

/// The acquire-or-translate step: key \p Blocks, and with a \p Service
/// lease the entry on a hit.  Otherwise \p Produce translates the
/// payload, which is published when a service is attached and kept in
/// Acquired::Local when not.
Acquired acquireOrTranslate(const guest::GuestMemory &Mem,
                            const GuestBlock *Blocks, size_t NBlocks,
                            const Translator::PlanFn &Plan,
                            const TranslationOpts &Opts, bool IsTrace,
                            TranslationService *Service,
                            const std::function<CachedTranslation()> &Produce);

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATIONCAPTURE_H
