//===- tests/dispatch_test.cpp - Hot-dispatch mechanism tests -------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-dispatch mechanisms behind EngineConfig::HashDispatch,
/// InlineCaches and Superblocks: DispatchTable unit behaviour
/// (collisions, tombstones, upsert, guarded erase, flush reset),
/// inline-cache fill/hit/eviction across retranslation, superblock
/// formation and de-optimization, and the architectural-transparency
/// guarantee (every combination reproduces the interpreter oracle and
/// replays bit-identically) including under code-cache flush storms.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dbt/DispatchTable.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// PCs that all land in one bucket of a fresh (64-slot) table, so probe
/// chains and tombstone traversal are exercised deterministically.
std::vector<uint32_t> collidingPcs(size_t N) {
  auto Bucket = [](uint32_t Pc) { return (Pc * 2654435761u) & 63u; };
  std::vector<uint32_t> Pcs;
  uint32_t Want = Bucket(4);
  for (uint32_t Pc = 4; Pcs.size() < N; Pc += 4)
    if (Bucket(Pc) == Want)
      Pcs.push_back(Pc);
  return Pcs;
}

dbt::RunResult runDispatch(const guest::GuestImage &Image,
                           const mda::PolicySpec &Spec,
                           dbt::EngineConfig Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

dbt::EngineConfig allOn() {
  dbt::EngineConfig Config;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  return Config;
}

/// A call whose *return-continuation* block turns misaligned at
/// iteration \p Onset: the callee bumps the shared base pointer once,
/// so the continuation (the block an inline-cache way targets) faults,
/// gets retranslated, and the stale way must be evicted.
guest::GuestImage lateOnsetCallProgram(uint32_t Iters, uint32_t Onset) {
  using namespace guest;
  ProgramBuilder B("late-onset-call");
  uint32_t Buf = B.dataReserve(64, 8);
  uint32_t Slot = B.dataU32(Buf);
  ProgramBuilder::Label F = B.newLabel();
  B.movri(1, 0);
  ProgramBuilder::Label Loop = B.here();
  B.call(F);
  // Continuation block: access through the callee-managed base.
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.movri(2, 0x1234);
  B.stl(mem(0, 0), 2);
  B.ldl(2, mem(0, 0));
  B.chk(2);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.halt();
  B.bind(F);
  ProgramBuilder::Label Fret = B.newLabel();
  B.cmpi(1, static_cast<int32_t>(Onset));
  B.jcc(Cond::Ne, Fret);
  B.movri(3, static_cast<int32_t>(Slot));
  B.ldl(0, mem(3, 0));
  B.addi(0, 1);
  B.stl(mem(3, 0), 0);
  B.bind(Fret);
  B.ret();
  return B.build();
}

/// Main loop calling \p NumFuncs hot callees through a misaligned base:
/// enough distinct warm blocks (callees plus the per-call continuation
/// blocks) that a small code-cache limit forces capacity flushes while
/// everything is still hot.
guest::GuestImage multiFuncLoopProgram(uint32_t Iters, unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("multi-func");
  uint32_t Buf = B.dataReserve(256, 8);
  std::vector<ProgramBuilder::Label> Funcs(NumFuncs);
  for (ProgramBuilder::Label &F : Funcs)
    F = B.newLabel();
  B.movri(1, 0);
  B.movri(0, static_cast<int32_t>(Buf + 1)); // misaligned base
  B.movri(2, 0);
  ProgramBuilder::Label Loop = B.here();
  for (ProgramBuilder::Label &F : Funcs)
    B.call(F);
  B.addi(1, 1);
  B.cmpi(1, static_cast<int32_t>(Iters));
  B.jcc(Cond::B, Loop);
  B.chk(2);
  B.halt();
  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    B.stl(mem(0, static_cast<int32_t>(8 * F)), 1);
    B.ldl(3, mem(0, static_cast<int32_t>(8 * F)));
    B.add(2, 3);
    B.ret();
  }
  return B.build();
}

} // namespace

// ---- DispatchTable unit behaviour ------------------------------------------

TEST(DispatchTableTest, InsertLookupEraseRoundTrip) {
  dbt::DispatchTable Table;
  dbt::Translation T[3];
  Table.insert(0x10, &T[0]);
  Table.insert(0x20, &T[1]);
  uint32_t Probes = 0;
  EXPECT_EQ(Table.lookup(0x10, Probes), &T[0]);
  EXPECT_GE(Probes, 1u);
  EXPECT_EQ(Table.lookup(0x30, Probes), nullptr);
  EXPECT_EQ(Table.size(), 2u);

  // Guarded erase: a mismatched translation must not drop the entry
  // (the superblock-install path depends on this).
  Table.eraseIf(0x10, &T[2]);
  EXPECT_EQ(Table.lookup(0x10, Probes), &T[0]);
  Table.eraseIf(0x10, &T[0]);
  EXPECT_EQ(Table.lookup(0x10, Probes), nullptr);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Table.tombstones(), 1u);
}

TEST(DispatchTableTest, UpsertReplacesWithoutGrowth) {
  dbt::DispatchTable Table;
  dbt::Translation A, B;
  Table.insert(0x40, &A);
  Table.insert(0x40, &B);
  uint32_t Probes = 0;
  EXPECT_EQ(Table.lookup(0x40, Probes), &B);
  EXPECT_EQ(Table.size(), 1u);
}

TEST(DispatchTableTest, CollisionChainProbesLinearly) {
  dbt::DispatchTable Table;
  std::vector<uint32_t> Pcs = collidingPcs(5);
  std::vector<dbt::Translation> T(Pcs.size());
  for (size_t I = 0; I != Pcs.size(); ++I)
    Table.insert(Pcs[I], &T[I]);
  // The last-inserted collider sits at the end of the probe chain.
  uint32_t Probes = 0;
  EXPECT_EQ(Table.lookup(Pcs.back(), Probes), &T.back());
  EXPECT_EQ(Probes, Pcs.size());
  EXPECT_EQ(Table.lookup(Pcs.front(), Probes), &T.front());
  EXPECT_EQ(Probes, 1u);
}

TEST(DispatchTableTest, LookupCrossesTombstonesAndInsertReusesThem) {
  dbt::DispatchTable Table;
  std::vector<uint32_t> Pcs = collidingPcs(3);
  dbt::Translation T[3];
  for (size_t I = 0; I != 3; ++I)
    Table.insert(Pcs[I], &T[I]);
  // Knock out the middle of the chain: later entries must still be
  // reachable across the grave.
  Table.eraseIf(Pcs[1], &T[1]);
  uint32_t Probes = 0;
  EXPECT_EQ(Table.lookup(Pcs[2], Probes), &T[2]);
  EXPECT_EQ(Probes, 3u);
  // A new collider reuses the tombstone instead of lengthening the
  // chain.
  dbt::Translation Fresh;
  Table.insert(Pcs[1], &Fresh);
  EXPECT_EQ(Table.tombstones(), 0u);
  EXPECT_EQ(Table.lookup(Pcs[1], Probes), &Fresh);
  EXPECT_EQ(Probes, 2u);
}

TEST(DispatchTableTest, FlushStormResetsCapacityAndDropsEntries) {
  dbt::DispatchTable Table;
  std::vector<dbt::Translation> T(512);
  for (int Storm = 0; Storm != 4; ++Storm) {
    for (uint32_t I = 0; I != 512; ++I)
      Table.insert(I * 4, &T[I]);
    EXPECT_EQ(Table.size(), 512u);
    EXPECT_GT(Table.capacity(), 512u); // grew past the initial 64
    Table.clear();
    EXPECT_EQ(Table.size(), 0u);
    EXPECT_EQ(Table.tombstones(), 0u);
    EXPECT_EQ(Table.capacity(), 64u); // flush forgets thrash-inflated size
    uint32_t Probes = 0;
    EXPECT_EQ(Table.lookup(0, Probes), nullptr);
  }
  EXPECT_GT(Table.rehashes(), 0u);
  EXPECT_EQ(Table.inserts(), 4u * 512u);
}

TEST(DispatchTableTest, RehashDropsTombstones) {
  dbt::DispatchTable Table;
  std::vector<dbt::Translation> T(256);
  // Churn insert/erase so tombstones pile up and force growth; the
  // rehash must rebuild from live entries only.
  for (uint32_t I = 0; I != 256; ++I) {
    Table.insert(I * 4, &T[I]);
    if (I % 2 == 0)
      Table.eraseIf(I * 4, &T[I]);
  }
  EXPECT_GT(Table.rehashes(), 0u);
  uint32_t Probes = 0;
  for (uint32_t I = 0; I != 256; ++I) {
    dbt::Translation *Want = I % 2 == 0 ? nullptr : &T[I];
    EXPECT_EQ(Table.lookup(I * 4, Probes), Want) << "pc " << I * 4;
  }
}

TEST(DispatchTableTest, EraseIfStormInterleavedWithRehashTracksReference) {
  // An SMC invalidation storm: bursts of guarded erases (some with the
  // live translation, some deliberately stale — which must be no-ops)
  // interleaved with fresh inserts that keep forcing growth.  After
  // every burst the table must agree with a reference map on every PC
  // ever touched, including across rehashes that drop the storm's
  // tombstones.
  dbt::DispatchTable Table;
  std::vector<dbt::Translation> Gen0(512), Gen1(512);
  std::map<uint32_t, dbt::Translation *> Ref;
  uint64_t Rng = 0x9e3779b97f4a7c15ULL; // deterministic xorshift
  auto Next = [&Rng]() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  };
  for (uint32_t I = 0; I != 512; ++I) {
    uint32_t Pc = (I + 1) * 4;
    Table.insert(Pc, &Gen0[I]);
    Ref[Pc] = &Gen0[I];
    if (I % 8 != 7)
      continue;
    // Invalidation burst over a window of already-installed PCs.
    for (uint32_t K = 0; K != 16; ++K) {
      uint32_t J = static_cast<uint32_t>(Next() % (I + 1));
      uint32_t VictimPc = (J + 1) * 4;
      if (Next() % 4 == 0) {
        // Stale guard: the PC was already remapped to a newer
        // translation (superblock formation does exactly this), so
        // the erase for the old one must not drop the fresh entry.
        Table.insert(VictimPc, &Gen1[J]);
        Ref[VictimPc] = &Gen1[J];
        Table.eraseIf(VictimPc, &Gen0[J]);
      } else {
        Table.eraseIf(VictimPc, Ref[VictimPc]);
        Ref[VictimPc] = nullptr;
      }
    }
    uint32_t Probes = 0;
    for (const auto &KV : Ref)
      ASSERT_EQ(Table.lookup(KV.first, Probes), KV.second)
          << "pc " << KV.first << " after burst at insert " << I;
  }
  EXPECT_GT(Table.rehashes(), 0u);
  EXPECT_GT(Table.erases(), 0u);
  size_t Live = 0;
  for (const auto &KV : Ref)
    Live += KV.second != nullptr;
  EXPECT_EQ(Table.size(), Live);
}

// ---- engine-level: transparency and mechanism activity ---------------------

TEST(DispatchEngineTest, HashDispatchIsArchitecturallyTransparent) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.HashDispatch = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Config);
  expectMatchesOracle(R, O, "hash dispatch");
  EXPECT_GT(R.Counters.get("dispatch.table_hits"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.table_inserts"), 0u);
}

TEST(DispatchEngineTest, InlineCachesFillAndCutMonitorEntries) {
  guest::GuestImage Image = workloads::buildCallRetKernel(500);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig Plain;
  dbt::EngineConfig Ic;
  Ic.InlineCaches = true;
  Ic.Verify = true;
  dbt::RunResult Base = runDispatch(Image, Spec, Plain);
  dbt::RunResult Cached = runDispatch(Image, Spec, Ic);
  expectMatchesOracle(Base, O, "callret baseline");
  expectMatchesOracle(Cached, O, "callret with inline caches");
  // The callee returns to two sites, so its return IC needs (and the
  // default budget has) two ways; once filled, returns stop visiting
  // the monitor.
  EXPECT_GE(Cached.Counters.get("dispatch.ic_fills"), 2u);
  EXPECT_LT(Cached.Counters.get("dbt.native_entries"),
            Base.Counters.get("dbt.native_entries"));
}

TEST(DispatchEngineTest, InlineCacheWayEvictedWhenTargetRetranslates) {
  guest::GuestImage Image = lateOnsetCallProgram(500, 150);
  Oracle O = interpretOracle(Image);
  // RetranslateThreshold 2: the continuation block the callee's return
  // IC targets goes misaligned at the onset, faults, and is superseded;
  // the way caching its entry must be taken out of service (and the
  // verifier must never see a live way to a dead entry).
  dbt::EngineConfig Config;
  Config.InlineCaches = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 10, false, 2, false}, Config);
  expectMatchesOracle(R, O, "IC eviction on retranslation");
  EXPECT_GT(R.Counters.get("dbt.supersedes"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_fills"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_evictions"), 0u);
}

TEST(DispatchEngineTest, SuperblockFormsOnHotSelfLoop) {
  guest::GuestImage Image = misalignedSumProgram(600);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.Superblocks = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Config);
  expectMatchesOracle(R, O, "superblock self-loop");
  EXPECT_GE(R.Counters.get("trace.formed"), 1u);
  EXPECT_GE(R.Counters.get("trace.blocks_emitted"), 2u); // unrolled copy
}

TEST(DispatchEngineTest, SuperblockStraightensMultiBlockLoop) {
  // Long enough that the straightened loop amortizes the one-time trace
  // translation cost in modeled cycles.
  guest::GuestImage Image = workloads::buildThreeBlockLoopKernel(5000);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::EngineConfig Plain;
  dbt::EngineConfig Super;
  Super.Superblocks = true;
  Super.Verify = true;
  dbt::RunResult Base = runDispatch(Image, Spec, Plain);
  dbt::RunResult Traced = runDispatch(Image, Spec, Super);
  expectMatchesOracle(Base, O, "loop3 baseline");
  expectMatchesOracle(Traced, O, "loop3 with superblocks");
  EXPECT_GE(Traced.Counters.get("trace.formed"), 1u);
  EXPECT_GE(Traced.Counters.get("trace.blocks_emitted"), 2u);
  EXPECT_LT(Traced.Cycles, Base.Cycles);
}

TEST(DispatchEngineTest, SuperblockDeoptsOnFlushAndReforms) {
  guest::GuestImage Image = lateOnsetProgram(800, 300);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config;
  Config.Superblocks = true;
  Config.Verify = true;
  // The trace is formed while the loop is aligned; after the onset its
  // faulting copies push it over the retranslate threshold.  The
  // supersede must de-opt the trace cleanly and a fresh trace (with the
  // fault sites inlined) must take its place.
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Dpeh, 10, false, 2, false}, Config);
  expectMatchesOracle(R, O, "superblock supersede de-opt");
  EXPECT_GT(R.Counters.get("dbt.supersedes"), 0u);
  EXPECT_GE(R.Counters.get("trace.deopts"), 1u);
  EXPECT_GE(R.Counters.get("trace.formed"), 2u); // re-formed after de-opt
}

// ---- flush interactions (chain bookkeeping regression) ---------------------

TEST(DispatchEngineTest, ChainBookkeepingSurvivesFlushStorms) {
  // Regression: a chain patched into a block that is flushed within the
  // same monitor episode must be fully unwound — the flush asserts that
  // IncomingChains and the stale-word quarantine drain to empty, and
  // the verifier checks the surviving image.  Sweep small cache limits
  // so the flush lands at different points of the chain/translate
  // interleaving.
  guest::GuestImage Image = multiFuncLoopProgram(500, 6);
  Oracle O = interpretOracle(Image);
  for (uint32_t Limit : {96u, 128u, 160u, 192u}) {
    dbt::EngineConfig Config = allOn();
    Config.Verify = true;
    Config.CodeCacheLimitWords = Limit;
    dbt::RunResult R = runDispatch(
        Image, {mda::MechanismKind::Dpeh, 10, false, 0, false}, Config);
    expectMatchesOracle(
        R, O, ("flush storm limit " + std::to_string(Limit)).c_str());
    EXPECT_GT(R.Counters.get("dbt.flushes"), 0u) << "limit " << Limit;
  }
}

TEST(DispatchEngineTest, HashTableStaysCoherentAcrossFlushStorms) {
  guest::GuestImage Image = multiFuncLoopProgram(500, 6);
  Oracle O = interpretOracle(Image);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 10, false, 0, false};
  dbt::EngineConfig Unlimited;
  Unlimited.HashDispatch = true;
  dbt::EngineConfig Limited = Unlimited;
  Limited.Verify = true;
  Limited.CodeCacheLimitWords = 96;
  dbt::RunResult Calm = runDispatch(Image, Spec, Unlimited);
  dbt::RunResult Stormy = runDispatch(Image, Spec, Limited);
  expectMatchesOracle(Calm, O, "hash dispatch, unlimited cache");
  expectMatchesOracle(Stormy, O, "hash dispatch under flush storms");
  EXPECT_GT(Stormy.Counters.get("dbt.flushes"), 0u);
  // Each flush drops the table wholesale; flush victims that come back
  // hot are re-inserted, so the stormy run inserts strictly more.
  EXPECT_GT(Stormy.Counters.get("dispatch.table_inserts"),
            Calm.Counters.get("dispatch.table_inserts"));
}

// ---- every combination is transparent and deterministic ---------------------

TEST(DispatchEngineTest, AllConfigCombinationsMatchOracle) {
  const guest::GuestImage Images[] = {
      misalignedSumProgram(400), workloads::buildCallRetKernel(400),
      workloads::buildThreeBlockLoopKernel(400), lateOnsetProgram(400, 100)};
  for (const guest::GuestImage &Image : Images) {
    Oracle O = interpretOracle(Image);
    for (unsigned Bits = 0; Bits != 8; ++Bits) {
      dbt::EngineConfig Config;
      Config.HashDispatch = Bits & 1;
      Config.InlineCaches = Bits & 2;
      Config.Superblocks = Bits & 4;
      Config.Verify = true;
      dbt::RunResult R = runDispatch(
          Image, {mda::MechanismKind::Dpeh, 20, false, 0, false}, Config);
      expectMatchesOracle(R, O,
                          ("config bits " + std::to_string(Bits)).c_str());
    }
  }
}

TEST(DispatchEngineTest, AllOnReplaysBitIdentically) {
  guest::GuestImage Image = workloads::buildCallRetKernel(500);
  mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 0, false};
  dbt::RunResult A = runDispatch(Image, Spec, allOn());
  dbt::RunResult B = runDispatch(Image, Spec, allOn());
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Checksum, B.Checksum);
  EXPECT_EQ(A.MemoryHash, B.MemoryHash);
  ASSERT_EQ(A.Counters.entries().size(), B.Counters.entries().size());
  for (const auto &Entry : A.Counters.entries())
    EXPECT_EQ(Entry.second, B.Counters.get(Entry.first)) << Entry.first;
}

TEST(DispatchEngineTest, CallRetModeledCostIsPinned) {
  // Exact modeled cost of k.callret under DPEH(50) on each rung of the
  // bench/ablation_dispatch ladder.  Cycles and host instructions are
  // deterministic, so a change in what any dispatch mechanism costs or
  // emits fails here; a deliberate cost-model change updates the table.
  struct Rung {
    const char *Name;
    bool Hash, Ic, Super;
    uint64_t Cycles, HostInsts;
  };
  const Rung Ladder[] = {
      {"baseline", false, false, false, 308545, 58845},
      {"+hash", true, false, false, 130570, 58845},
      {"+ic", false, true, false, 104551, 88177},
      {"+superblock", false, false, true, 305663, 54949},
      {"all-on", true, true, true, 99146, 84278},
  };
  guest::GuestImage Image = workloads::buildCallRetKernel(2000);
  for (const Rung &R : Ladder) {
    dbt::EngineConfig Config;
    Config.HashDispatch = R.Hash;
    Config.InlineCaches = R.Ic;
    Config.Superblocks = R.Super;
    dbt::RunResult Run = runDispatch(
        Image, {mda::MechanismKind::Dpeh, 50, false, 0, false}, Config);
    ASSERT_TRUE(Run.completed()) << R.Name;
    EXPECT_EQ(Run.Cycles, R.Cycles) << R.Name;
    EXPECT_EQ(Run.Counters.get("host.insts"), R.HostInsts) << R.Name;
  }
}

namespace {

/// A guest whose worker patches the imm32 of its *return-target*
/// block before returning into it: the ret's cached inline-cache way
/// then points at a translation that is invalidated on every circuit,
/// so the storm exercises way retirement, not just dispatch-table
/// erasure.  (The nop padding 4-aligns the patched imm so the patch
/// store itself is aligned traffic.)
guest::GuestImage icStormProgram(uint32_t Iters) {
  using namespace guest;
  ProgramBuilder B("ic.storm");
  ProgramBuilder::Label Worker = B.newLabel();
  ProgramBuilder::Label Loop = B.newLabel();
  B.movri(6, static_cast<int32_t>(Iters));
  B.bind(Loop);
  B.call(Worker);
  // Continuation block — the ret target the worker rewrites.
  while ((B.codeAddress() + 2) % 4 != 0)
    B.nop();
  uint32_t ContImm = B.codeAddress() + 2;
  B.movri(0, 0); // imm32 patched every circuit
  B.chk(0);
  B.subi(6, 1);
  B.cmpi(6, 0);
  B.jcc(Cond::Ne, Loop);
  B.halt();
  // Patch only every 8th circuit: in between, the continuation stays
  // valid so the ret's way actually fills (and hits); on patching
  // circuits the filled way's target is invalidated and the way must
  // be evicted.
  ProgramBuilder::Label Skip = B.newLabel();
  B.bind(Worker);
  B.movrr(2, 6);
  B.andi(2, 7);
  B.cmpi(2, 0);
  B.jcc(Cond::Ne, Skip);
  B.movri(3, static_cast<int32_t>(ContImm));
  B.stl(mem(3, 0), 6); // SMC into the return-target block
  B.bind(Skip);
  B.ret();
  return B.build();
}

} // namespace

TEST(DispatchEngineTest, InlineCacheRetirementSurvivesSmcInvalidationStorm) {
  // Each circuit invalidates the worker's cached return target: the
  // SMC barrier must retire the dispatch-table entry and the filled
  // inline-cache way before the next dispatch, while the table keeps
  // churning — and the run must stay byte-identical.
  guest::GuestImage Image = icStormProgram(250);
  Oracle O = interpretOracle(Image);
  dbt::EngineConfig Config = allOn();
  Config.Analysis = true;
  Config.Verify = true;
  dbt::RunResult R = runDispatch(
      Image, {mda::MechanismKind::Direct, 0, false, 0, false}, Config);
  expectMatchesOracle(R, O, "ic.storm all-on");
  EXPECT_GT(R.Counters.get("smc.invalidations"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.table_erases"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_fills"), 0u);
  EXPECT_GT(R.Counters.get("dispatch.ic_evictions"), 0u);
}
