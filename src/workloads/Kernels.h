//===- workloads/Kernels.h - Synthetic workload building blocks -*- C++ -*-===//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The building blocks the SPEC-like program synthesizer is made of:
///
/// A benchmark program is a fixed number of *rounds*; each round calls a
/// list of *sections* (as guest functions).  A section is a hot loop whose
/// body performs one memory access per *site* — a site is one static
/// memory instruction sweeping its own array.  Alignment behaviour is
/// controlled per section group:
///
///  - the section's base pointer lives in a data slot; groups with an
///    onset round get the slot bumped by +1 at that round (late-onset
///    MDAs that escape dynamic profiling — paper Table III);
///  - "ref-only" groups start bumped only under the REF input (MDAs the
///    train run never sees — paper Table IV);
///  - mixed-bias groups add a per-iteration bump computed from the loop
///    counter, yielding per-site misaligned ratios of 25% / 50% / 75%
///    (paper Fig. 15's <50 / =50 / >50 classes);
///  - aligned "filler" sections control total reference counts and the
///    heat (execution counts) that the threshold experiments of Fig. 10
///    depend on.
///
//===----------------------------------------------------------------------===//

#ifndef MDABT_WORKLOADS_KERNELS_H
#define MDABT_WORKLOADS_KERNELS_H

#include "guest/Assembler.h"
#include "support/RNG.h"

#include <cstdint>
#include <vector>

namespace mdabt {
namespace workloads {

/// Per-access alignment pattern of a site group once it is active.
enum class BiasKind {
  Aligned, ///< never misaligned (filler)
  Always,  ///< misaligned on every access (paper: the dominant class)
  Above50, ///< misaligned 75% of accesses
  Equal50, ///< misaligned 50% of accesses
  Below50, ///< misaligned 25% of accesses (the "frequently aligned" 4.5%)
  Rare,    ///< misaligned 1/16 of accesses: high-traffic, mostly aligned
           ///< sites — the population multi-version code targets
};

/// Fraction of active accesses that are misaligned for a bias kind.
double biasFraction(BiasKind B);

/// Exact number of misaligned accesses the bias pattern produces over
/// \p Iters loop iterations (the patterns are deterministic functions of
/// the loop counter).
uint64_t biasPatternCount(BiasKind B, uint32_t Iters);

/// One homogeneous group of sites.
struct SiteGroup {
  uint32_t Sites = 0;
  uint32_t ItersPerRound = 0;
  /// Access size in bytes (2, 4 or 8; filler may use any).
  unsigned Size = 4;
  BiasKind Bias = BiasKind::Always;
  /// First round in which the group's base pointers are misaligned.
  /// 0 = misaligned from the start; >= Rounds = never (filler).
  uint32_t OnsetRound = 0;
  /// Only misaligned under the REF input (train never sees it).
  bool RefOnly = false;
  /// Every Nth site is a store (0 = loads only).
  uint32_t StoreEvery = 3;
  /// Sites per emitted section for this group (0 = plan default).
  /// Small values concentrate executions into few, very hot blocks.
  uint32_t SitesPerSection = 0;
  /// The section's iteration count is gated by a data slot that opens at
  /// OnsetRound: before that round the loop body never runs, so sites
  /// access memory *only* while misaligned (per-instruction ratio 100%).
  /// Used by the census-showcase sections.  Requires Bias == Always.
  bool GatedIters = false;

  /// Expected misaligned accesses over a whole REF run of \p Rounds.
  uint64_t expectedMdas(uint32_t Rounds) const;
  /// Expected total accesses over a whole run of \p Rounds.
  uint64_t expectedRefs(uint32_t Rounds) const;
};

/// A complete synthetic program plan.
struct ProgramPlan {
  std::string Name;
  uint32_t Rounds = 8;
  /// Sites per generated section (loop body size).
  uint32_t SitesPerSection = 24;
  std::vector<SiteGroup> Groups;
  uint64_t Seed = 1;
};

/// Which input set the image models (paper: train vs ref).
enum class InputKind { Train, Ref };

/// Layout variant for the Figure-1 experiment.
enum class LayoutKind {
  /// As released: misalignment per the plan.
  Default,
  /// Compiled with alignment-enforcing flags: all bumps suppressed and
  /// arrays padded (larger working set), paper section II.
  AlignedPadded,
};

/// Synthesize the guest binary for \p Plan.
guest::GuestImage buildProgram(const ProgramPlan &Plan, InputKind Input,
                               LayoutKind Layout = LayoutKind::Default,
                               double PaddingFactor = 1.0);

// -- fusion-dense kernels ------------------------------------------------
//
// Aligned synthetic kernels whose hot-loop bodies are saturated with the
// guest idioms the peephole fusion table (dbt/FusionRules.h) targets:
// runs of indexed memory ops sharing one (base, index, scale) address
// (SharedAddr), load-modify-store read-modify-writes (LdOpSt), mov-op
// chains (MovOp/MovOpI), and loops closed with `addi -1; cmpi 0; jcc Ne`
// (ImmNeg + CmpBr0).  Used by bench/ablation_fusion and the fusion
// tests; all accesses are aligned so the measured delta is pure
// code-density effect, not MDA-policy noise.

/// A memcpy-like kernel: copy \p Words 32-bit words from a source to a
/// destination array, \p Rounds times, two words per iteration plus a
/// read-modify-write pass over the destination.
guest::GuestImage buildFusionMemcpyKernel(uint32_t Words, uint32_t Rounds);

/// A memset-like kernel: fill \p Words 32-bit words (four per
/// iteration, one shared indexed address) with an evolving pattern,
/// \p Rounds times.
guest::GuestImage buildFusionMemsetKernel(uint32_t Words, uint32_t Rounds);

// -- dispatch-bound kernels ----------------------------------------------
//
// The synthesized SPEC programs keep their indirect branches (call/ret)
// cold; these two aligned kernels keep dispatch hot.  Used by
// bench/ablation_dispatch and the dispatch tests.

/// `k.callret`: \p Iters rounds of two calls to one callee that returns
/// alternately to the two call sites, so its return's inline cache
/// needs two ways.
guest::GuestImage buildCallRetKernel(uint32_t Iters);

/// `k.loop3`: a hot three-block loop (if/else arms) run \p Iters times,
/// the shape multi-block superblock formation straightens.
guest::GuestImage buildThreeBlockLoopKernel(uint32_t Iters);

} // namespace workloads
} // namespace mdabt

#endif // MDABT_WORKLOADS_KERNELS_H
