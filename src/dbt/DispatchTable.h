//===- dbt/DispatchTable.h - Open-addressed PC dispatch table --*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's one guest-PC -> Translation map: an open-addressed table
/// with linear probing and tombstone deletion, modeled on the
/// translation-lookup fast path of production DBT monitors (one probe +
/// indirect jump on a hit instead of an ordered-map walk).  Every entry
/// holds a currently-valid translation: entries are erased on
/// invalidation and the whole table is dropped on a cache flush, so a
/// hit can be trusted without revalidation.  lookup() reports the probe
/// count so that, under EngineConfig::HashDispatch, the engine can
/// charge CostModel::DispatchTableHitCycles / DispatchProbeCycles
/// faithfully; without it the same lookup is priced as the modeled
/// ordered-map walk (MonitorDispatchCycles).
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_DBT_DISPATCHTABLE_H
#define MDABT_DBT_DISPATCHTABLE_H

#include "dbt/Translation.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace mdabt {
namespace dbt {

/// Open-addressed PC -> Translation* map with linear probing.
/// Capacity is always a power of two; the load factor (live +
/// tombstones) is kept under 3/4 by growing, which also drops
/// accumulated tombstones (rehash inserts live entries only).
class DispatchTable {
public:
  DispatchTable() { reset(InitialCapacity); }

  /// Find the translation installed for \p Pc.  \p Probes is set to the
  /// number of slots inspected (>= 1); the engine prices the lookup
  /// from it.  Returns null on a miss.
  Translation *lookup(uint32_t Pc, uint32_t &Probes) const {
    const uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    uint32_t I = hashPc(Pc) & Mask;
    Probes = 0;
    for (;;) {
      ++Probes;
      const Slot &S = Slots[I];
      if (S.State == SlotState::Empty)
        return nullptr;
      if (S.State == SlotState::Full && S.Pc == Pc)
        return S.T;
      I = (I + 1) & Mask; // tombstone or collision: keep probing
      assert(Probes <= Slots.size() && "dispatch table probe loop");
    }
  }

  /// Install (or replace) the entry for \p Pc.
  void insert(uint32_t Pc, Translation *T) {
    assert(T && "inserting null translation");
    if ((Live + Tombstoned + 1) * 4 > Slots.size() * 3)
      grow();
    ++Inserts;
    const uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    uint32_t I = hashPc(Pc) & Mask;
    uint32_t FirstTombstone = UINT32_MAX;
    for (;;) {
      Slot &S = Slots[I];
      if (S.State == SlotState::Empty) {
        if (FirstTombstone != UINT32_MAX) { // reuse the earlier grave
          Slots[FirstTombstone] = {Pc, T, SlotState::Full};
          --Tombstoned;
        } else {
          S = {Pc, T, SlotState::Full};
        }
        ++Live;
        return;
      }
      if (S.State == SlotState::Full && S.Pc == Pc) {
        S.T = T; // upsert
        return;
      }
      if (S.State == SlotState::Tombstone && FirstTombstone == UINT32_MAX)
        FirstTombstone = I;
      I = (I + 1) & Mask;
    }
  }

  /// Remove the entry for \p Pc, but only if it still maps to \p T:
  /// during superblock formation the head PC is remapped to the trace
  /// before the superseded block is torn down, and an unguarded erase
  /// would drop the fresh mapping.
  void eraseIf(uint32_t Pc, const Translation *T) {
    const uint32_t Mask = static_cast<uint32_t>(Slots.size()) - 1;
    uint32_t I = hashPc(Pc) & Mask;
    for (;;) {
      Slot &S = Slots[I];
      if (S.State == SlotState::Empty)
        return;
      if (S.State == SlotState::Full && S.Pc == Pc) {
        if (S.T == T) {
          S = {0, nullptr, SlotState::Tombstone};
          --Live;
          ++Tombstoned;
          ++Erases;
        }
        return;
      }
      I = (I + 1) & Mask;
    }
  }

  /// Drop every entry (code-cache flush).  Counters survive; capacity
  /// resets so a post-flush table does not keep a thrash-inflated size.
  void clear() { reset(InitialCapacity); }

  size_t size() const { return Live; }
  size_t capacity() const { return Slots.size(); }
  size_t tombstones() const { return Tombstoned; }
  uint64_t inserts() const { return Inserts; }
  uint64_t erases() const { return Erases; }
  uint64_t rehashes() const { return Rehashes; }

private:
  enum class SlotState : uint8_t { Empty, Full, Tombstone };
  struct Slot {
    uint32_t Pc = 0;
    Translation *T = nullptr;
    SlotState State = SlotState::Empty;
  };

  static constexpr size_t InitialCapacity = 64;

  /// Knuth multiplicative hash; guest PCs are word-aligned so the
  /// low bits alone would collide pathologically.
  static uint32_t hashPc(uint32_t Pc) { return Pc * 2654435761u; }

  void reset(size_t Capacity) {
    Slots.assign(Capacity, Slot{});
    Live = 0;
    Tombstoned = 0;
  }

  void grow() {
    ++Rehashes;
    std::vector<Slot> Old = std::move(Slots);
    // Rehash drops tombstones, so growth is only forced by live load.
    size_t NewCap = Old.size();
    if ((Live + 1) * 4 > NewCap * 2)
      NewCap *= 2;
    reset(NewCap);
    uint64_t SavedInserts = Inserts; // re-inserts are not user inserts
    for (const Slot &S : Old)
      if (S.State == SlotState::Full)
        insert(S.Pc, S.T);
    Inserts = SavedInserts;
  }

  std::vector<Slot> Slots;
  size_t Live = 0;
  size_t Tombstoned = 0;
  uint64_t Inserts = 0;
  uint64_t Erases = 0;
  uint64_t Rehashes = 0;
};

} // namespace dbt
} // namespace mdabt

#endif // MDABT_DBT_DISPATCHTABLE_H
