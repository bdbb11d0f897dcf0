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

  explicit GuestMemory(uint32_t Size = layout::MemorySize) : Bytes(Size, 0) {}

  /// Zero memory and copy the image's code and data segments in.
  void loadImage(const GuestImage &Image) {
    std::memset(Bytes.data(), 0, Bytes.size());
    assert(Image.codeEnd() <= Bytes.size() && "code segment out of range");
    assert(Image.dataEnd() <= Bytes.size() && "data segment out of range");
    // An empty segment's data() may be null, which memcpy forbids even
    // for zero bytes.
    if (!Image.Code.empty())
      std::memcpy(Bytes.data() + Image.CodeBase, Image.Code.data(),
                  Image.Code.size());
    if (!Image.Data.empty())
      std::memcpy(Bytes.data() + Image.DataBase, Image.Data.data(),
                  Image.Data.size());
  }

  /// Load \p Size (1/2/4/8) bytes at \p Addr, zero-extended.
  uint64_t load(uint32_t Addr, unsigned Size) const {
    assert(inRange(Addr, Size) && "guest load out of range");
    uint64_t V = 0;
    std::memcpy(&V, Bytes.data() + Addr, Size);
    return V;
  }

  /// Store the low \p Size bytes of \p Value at \p Addr.
  void store(uint32_t Addr, unsigned Size, uint64_t Value) {
    assert(inRange(Addr, Size) && "guest store out of range");
    std::memcpy(Bytes.data() + Addr, &Value, Size);
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
      Watch.resize(((Bytes.size() - 1) >> WatchPageShift) + 1, 0);
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

  const uint8_t *data() const { return Bytes.data(); }
  uint8_t *data() { return Bytes.data(); }
  uint32_t size() const { return static_cast<uint32_t>(Bytes.size()); }

  bool inRange(uint32_t Addr, unsigned Size) const {
    return static_cast<uint64_t>(Addr) + Size <= Bytes.size();
  }

private:
  std::vector<uint8_t> Bytes;
  /// Per-page count of watched ranges covering the page; allocated
  /// lazily on the first watchRange so watch-free runs pay nothing.
  std::vector<uint32_t> Watch;
  uint32_t WatchedPages = 0;
  WriteWatcher Watcher;
};

} // namespace guest
} // namespace mdabt

#endif // MDABT_GUEST_GUESTMEMORY_H
