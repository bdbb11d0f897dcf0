//===- support/ZeroChunk.h - Test 64 bytes for all-zero ---------*- C++ -*-===//
//
// Part of the MDABT project: reproduction of "An Evaluation of Misaligned
// Data Access Handling Mechanisms in Dynamic Binary Translation Systems"
// (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk test behind the zero-skipping scans over guest memory
/// (dbt::fnv1a and GuestMemory's re-zeroing).  A 16 MiB guest memory is
/// almost all zero, so these scans run at the speed of this test.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_SUPPORT_ZEROCHUNK_H
#define MDABT_SUPPORT_ZEROCHUNK_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mdabt {

/// Bytes isZeroChunk() tests at once.
inline constexpr size_t ZeroChunkBytes = 64;

/// True if the ZeroChunkBytes bytes at \p P (any alignment) are all
/// zero.  The eight word loads are ORed as a tree rather than one chain,
/// so they do not wait on each other; over pages the OS backs with its
/// shared zero page that is about five times faster than a word loop.
inline bool isZeroChunk(const uint8_t *P) {
  uint64_t W[8];
  std::memcpy(W, P, sizeof(W));
  return (((W[0] | W[1]) | (W[2] | W[3])) |
          ((W[4] | W[5]) | (W[6] | W[7]))) == 0;
}

} // namespace mdabt

#endif // MDABT_SUPPORT_ZEROCHUNK_H
