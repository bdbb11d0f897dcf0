//===- guest/GuestMemory.cpp ----------------------------------------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backing store of GuestMemory: an anonymous private mapping of the
/// page-rounded guest size followed by one PROT_NONE guard page.  The
/// guest bytes end exactly where the guard page begins.
///
/// Mappings are recycled.  A destroyed memory zeroes its dirty chunks
/// and parks its mapping in a process-wide free list; the next memory
/// of the same size takes it from there.  Once a process has as many
/// mappings as it ever has memories alive at once, creating, loading,
/// hashing and destroying a memory makes no system call and takes no
/// page fault.  Unmapping or dropping pages instead would cost every
/// run thousands of faults plus a TLB shootdown across the threads of
/// the process, and that kernel time varies with the load on the
/// machine far more than the run itself does.
///
//===----------------------------------------------------------------------===//

#include "guest/GuestMemory.h"

#include "support/ZeroChunk.h"

#include <mutex>
#include <new>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

using namespace mdabt;
using namespace mdabt::guest;

namespace {
size_t pageBytes() {
  static const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return Page;
}

/// Bytes of the read-write part of the mapping that holds \p N guest
/// bytes.
size_t rwBytes(size_t N) {
  size_t Page = pageBytes();
  return (N + Page - 1) / Page * Page;
}

/// Zero every nonzero byte of [B, B + N), a chunk at a time.  A chunk
/// that is already zero is only read, so a page the guest never wrote
/// is never written here either.
void zeroDirty(uint8_t *B, size_t N) {
  size_t I = 0;
  for (; N - I >= ZeroChunkBytes; I += ZeroChunkBytes)
    if (!isZeroChunk(B + I))
      std::memset(B + I, 0, ZeroChunkBytes);
  for (; I != N; ++I)
    if (B[I] != 0)
      B[I] = 0;
}

/// Zeroed mappings of destroyed memories, by guest size.  Bounded so a
/// burst of live memories does not stay resident for the rest of the
/// process; beyond the bound a destroyed memory unmaps.
class MappingPool {
public:
  static constexpr size_t MaxFree = 64;

  /// A zeroed mapping for \p Size guest bytes, or null if none is free.
  uint8_t *take(uint32_t Size) {
    std::lock_guard<std::mutex> L(Lock);
    for (size_t I = Free.size(); I-- != 0;)
      if (Free[I].first == Size) {
        uint8_t *Bytes = Free[I].second;
        Free.erase(Free.begin() + static_cast<ptrdiff_t>(I));
        return Bytes;
      }
    return nullptr;
  }

  /// Park the zeroed mapping of \p Size bytes at \p Bytes; false if the
  /// pool is full and the caller must unmap it.
  bool give(uint32_t Size, uint8_t *Bytes) {
    std::lock_guard<std::mutex> L(Lock);
    if (Free.size() == MaxFree)
      return false;
    Free.emplace_back(Size, Bytes);
    return true;
  }

private:
  std::mutex Lock;
  std::vector<std::pair<uint32_t, uint8_t *>> Free;
};

/// Never destroyed, so memories with static storage duration may still
/// release into it at exit.
MappingPool &pool() {
  static MappingPool *P = new MappingPool;
  return *P;
}
} // namespace

GuestMemory::GuestMemory(uint32_t Size) {
  NBytes = Size;
  if ((Bytes = pool().take(Size)))
    return;
  size_t Rw = rwBytes(Size);
  void *Map = mmap(nullptr, Rw + pageBytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  uint8_t *Base = static_cast<uint8_t *>(Map);
  if (mprotect(Base + Rw, pageBytes(), PROT_NONE) != 0) {
    munmap(Map, Rw + pageBytes());
    throw std::bad_alloc();
  }
  Bytes = Base + Rw - Size;
}

GuestMemory::~GuestMemory() { release(); }

GuestMemory::GuestMemory(GuestMemory &&Other) noexcept {
  *this = std::move(Other);
}

GuestMemory &GuestMemory::operator=(GuestMemory &&Other) noexcept {
  if (this == &Other)
    return *this;
  release();
  Bytes = std::exchange(Other.Bytes, nullptr);
  NBytes = std::exchange(Other.NBytes, 0);
  Watch = std::exchange(Other.Watch, {});
  WatchedPages = std::exchange(Other.WatchedPages, 0);
  Watcher = std::exchange(Other.Watcher, nullptr);
  return *this;
}

void GuestMemory::release() {
  if (!Bytes)
    return;
  zeroDirty(Bytes, NBytes);
  if (!pool().give(NBytes, Bytes)) {
    size_t Rw = rwBytes(NBytes);
    munmap(Bytes + NBytes - Rw, Rw + pageBytes());
  }
  Bytes = nullptr;
  NBytes = 0;
}

void GuestMemory::loadImage(const GuestImage &Image) {
  assert(Bytes && "loadImage on a moved-from GuestMemory");
  assert(Image.codeEnd() <= NBytes && "code segment out of range");
  assert(Image.dataEnd() <= NBytes && "data segment out of range");
  zeroDirty(Bytes, NBytes);
  // An empty segment's data() may be null, which memcpy forbids even
  // for zero bytes.
  if (!Image.Code.empty())
    std::memcpy(Bytes + Image.CodeBase, Image.Code.data(), Image.Code.size());
  if (!Image.Data.empty())
    std::memcpy(Bytes + Image.DataBase, Image.Data.data(), Image.Data.size());
}
