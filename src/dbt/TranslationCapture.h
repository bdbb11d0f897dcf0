//===- dbt/TranslationCapture.h - Content keys + capture -------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's byte-identity contract and the one step through
/// which every producer of translations reaches the shared cache — the
/// per-run demand and superblock paths (`ExecutionContext`) and the
/// static AOT pre-translator (`AotTranslator`):
///
///  * `translationContentKey` serializes everything that determines the
///    translator's emission for one (multi-)block — format version,
///    trace-ness, block-level options including the fusion mask, each
///    constituent's raw guest bytes, and the MemPlan the plan chain
///    returns for every planned site — and hashes it into the 128-bit
///    cache key;
///  * `captureTranslation` snapshots a freshly translated block's
///    pristine words and install metadata into the relocatable
///    `CachedTranslation` form (entry-relative, deterministically
///    sorted);
///  * `acquireOrTranslate` keys a (multi-)block, leases a cached entry
///    on a hit, and on a miss translates locally and publishes the
///    capture.
///
/// Keeping both in one place is what lets an AOT-published entry be
/// byte-for-byte the entry a demand translation of the same bytes under
/// the same plans would publish: warm start, disk persistence and
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

/// Snapshot \p T's pristine words (still untouched by chaining or
/// patching) from \p Code into the relocatable cached form.
CachedTranslation captureTranslation(const Translation &T,
                                     const host::CodeSpace &Code);

/// What acquireOrTranslate() did for one block or trace.
struct Acquired {
  CacheKey Key;
  /// The shared entry: the one hit, or the one the miss published.
  /// Empty when no service is attached.
  TranslationLease Lease;
  /// A hit: Lease.get() holds the words and nothing was translated.
  bool FromCache = false;
  /// Entries the miss's publish evicted to make room.
  uint64_t Evicted = 0;
};

/// The acquire-or-translate step: key \p Blocks, and with a \p Service
/// lease the entry on a hit.  Otherwise \p Translate emits the
/// translation into \p Code and, with a service, its pristine capture
/// is published for other producers.
Acquired acquireOrTranslate(
    const guest::GuestMemory &Mem, const GuestBlock *Blocks, size_t NBlocks,
    const Translator::PlanFn &Plan, const TranslationOpts &Opts, bool IsTrace,
    TranslationService *Service, const host::CodeSpace &Code,
    const std::function<const Translation &()> &Translate);

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_TRANSLATIONCAPTURE_H
