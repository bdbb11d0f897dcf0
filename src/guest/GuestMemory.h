//===- guest/GuestMemory.h - Flat guest address space ----------*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The guest process's flat memory.  Both the interpreter and the host
/// machine simulator (running translated code) operate on this object —
/// translated code addresses the migrated process image directly, exactly
/// as in DigitalBridge/FX!32 where guest data lives at its original
/// addresses.
///
/// All accessors permit misaligned addresses; *whether* a misaligned
/// access traps is a property of the executing machine (the host
/// simulator), not of the memory.
///
/// The bytes live in an anonymous private mapping rather than on the
/// heap, so the operating system zero-fills them on first touch and a
/// run pays only for the pages it uses.  A destroyed memory zeroes what
/// was written and hands its mapping to the next memory of its size, so
/// steady-state runs make no system call and take no page fault for
/// their memory.  One inaccessible guard page follows the last guest
/// byte, so a raw overrun of data() faults in every build.
///
/// The memory also hosts the DBT's self-modifying-code write barrier:
/// the engine registers the guest byte ranges backing live translations
/// (watchRange/unwatchRange, bookkept as per-64-byte-page reference
/// counts), and every store whose page is watched invokes the watcher
/// callback — the software analogue of write-protecting code pages in a
/// real translator.  Unwatched stores pay exactly one integer compare.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_GUEST_GUESTMEMORY_H
#define MDABT_GUEST_GUESTMEMORY_H

#include "guest/GuestImage.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <vector>

namespace mdabt {
namespace guest {

/// Flat, byte-addressable guest memory.
class GuestMemory {
public:
  /// Log2 of the write-watch page size.  64 bytes keeps the dirty map
  /// fine enough that unrelated translations rarely share a page, while
  /// one page still covers a typical guest basic block.
  static constexpr uint32_t WatchPageShift = 6;
  static constexpr uint32_t WatchPageBytes = 1u << WatchPageShift;

  /// Invoked for every store that lands in a watched page, after the
  /// bytes have been written.  The callback may read memory and adjust
  /// watches but must not store through this GuestMemory.
  using WriteWatcher = std::function<void(uint32_t Addr, unsigned Size)>;

  /// \p Size zero bytes plus the guard page, from a recycled mapping
  /// when one is free; throws std::bad_alloc if a new mapping fails.
  explicit GuestMemory(uint32_t Size = layout::MemorySize);
  ~GuestMemory();

  /// Move-only: the mapping has one owner.  A moved-from memory is
  /// empty (size() == 0) and may only be destroyed or assigned to.
  GuestMemory(GuestMemory &&Other) noexcept;
  GuestMemory &operator=(GuestMemory &&Other) noexcept;
  GuestMemory(const GuestMemory &) = delete;
  GuestMemory &operator=(const GuestMemory &) = delete;

  /// Zero memory and copy the image's code and data segments in.
  /// Zeroing reads every byte but writes only the 64-byte chunks that
  /// are not already zero.
  void loadImage(const GuestImage &Image);

  /// Load \p Size (1/2/4/8) bytes at \p Addr, zero-extended.
  uint64_t load(uint32_t Addr, unsigned Size) const {
    assert(inRange(Addr, Size) && "guest load out of range");
    uint64_t V = 0;
    std::memcpy(&V, Bytes + Addr, Size);
    return V;
  }

  /// Store the low \p Size bytes of \p Value at \p Addr.
  void store(uint32_t Addr, unsigned Size, uint64_t Value) {
    assert(inRange(Addr, Size) && "guest store out of range");
    std::memcpy(Bytes + Addr, &Value, Size);
    if (WatchedPages != 0) {
      uint32_t P0 = Addr >> WatchPageShift;
      uint32_t P1 = (Addr + Size - 1) >> WatchPageShift;
      if (Watch[P0] != 0 || Watch[P1] != 0)
        Watcher(Addr, Size);
    }
  }

  // -- write-watch (SMC barrier) ----------------------------------------

  /// Install the barrier callback.  One watcher per memory; installing
  /// while ranges are watched is allowed (the new watcher takes over).
  void setWriteWatcher(WriteWatcher W) { Watcher = std::move(W); }

  /// Watch the half-open byte range [Begin, End): stores touching any
  /// page it covers invoke the watcher.  Ranges nest — each watchRange
  /// must be paired with one unwatchRange of the same range.
  void watchRange(uint32_t Begin, uint32_t End) {
    if (Begin >= End)
      return;
    assert(Watcher && "watchRange without a write watcher installed");
    if (Watch.empty())
      Watch.resize(((NBytes - 1) >> WatchPageShift) + 1, 0);
    for (uint32_t P = Begin >> WatchPageShift,
                  Last = (End - 1) >> WatchPageShift;
         P <= Last; ++P)
      if (Watch[P]++ == 0)
        ++WatchedPages;
  }

  /// Undo one prior watchRange(Begin, End).
  void unwatchRange(uint32_t Begin, uint32_t End) {
    if (Begin >= End)
      return;
    for (uint32_t P = Begin >> WatchPageShift,
                  Last = (End - 1) >> WatchPageShift;
         P <= Last; ++P) {
      assert(!Watch.empty() && Watch[P] != 0 &&
             "unwatchRange without a matching watchRange");
      if (--Watch[P] == 0)
        --WatchedPages;
    }
  }

  /// True if a store at \p Addr would invoke the watcher.
  bool watched(uint32_t Addr) const {
    return WatchedPages != 0 && Watch[Addr >> WatchPageShift] != 0;
  }

  /// Number of distinct pages currently under watch.
  uint32_t watchedPages() const { return WatchedPages; }

  /// The guest bytes; data()[size()] is the first byte of the guard
  /// page.
  const uint8_t *data() const { return Bytes; }
  uint8_t *data() { return Bytes; }
  uint32_t size() const { return NBytes; }

  bool inRange(uint32_t Addr, unsigned Size) const {
    return static_cast<uint64_t>(Addr) + Size <= NBytes;
  }

private:
  /// Zero the bytes and recycle the mapping (or unmap it when enough
  /// are parked), leaving the memory empty.
  void release();

  /// The guest bytes sit at the end of their page-rounded mapping,
  /// directly before the guard page.
  uint8_t *Bytes = nullptr;
  uint32_t NBytes = 0;
  /// Per-page count of watched ranges covering the page; allocated
  /// lazily on the first watchRange so watch-free runs pay nothing.
  std::vector<uint32_t> Watch;
  uint32_t WatchedPages = 0;
  WriteWatcher Watcher;
};

} // namespace guest
} // namespace mdabt

#endif // MDABT_GUEST_GUESTMEMORY_H
