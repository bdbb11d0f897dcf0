//===- tests/serving_test.cpp - Shared translation cache tests ------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant serving layer (docs/SERVING.md): concurrent runs
/// sharing one TranslationService must each stay byte-identical to an
/// isolated-engine oracle — including hostile self-modifying tenants in
/// the mix and with the structural verifier on — must leak zero cache
/// leases at shutdown, and must reject a truncated or bit-flipped disk
/// artifact whole rather than ever executing from it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dbt/TranslationService.h"
#include "mda/PolicyFactory.h"
#include "workloads/Hostile.h"
#include "workloads/SpecCatalog.h"
#include "workloads/SpecPrograms.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace mdabt;
using namespace mdabt::testutil;

namespace {

/// A serving run: Verify on (any structural slip is a typed abort, not
/// silent corruption) plus the full dispatch surface so cached entries
/// carry exits, IC sites and superblock metadata.
dbt::EngineConfig servingConfig(dbt::TranslationService *Service) {
  dbt::EngineConfig Config;
  Config.Verify = true;
  Config.HashDispatch = true;
  Config.InlineCaches = true;
  Config.Superblocks = true;
  Config.Service = Service;
  return Config;
}

/// The AOT modes the engine-integration tests serve under: demand
/// translation only, and hybrid static pre-translation, whose units go
/// through the same shared cache as demand blocks and traces.
constexpr dbt::AotMode ServedAotModes[] = {dbt::AotMode::Off,
                                           dbt::AotMode::Hybrid};

dbt::RunResult runWith(const guest::GuestImage &Image,
                       const mda::PolicySpec &Spec,
                       const dbt::EngineConfig &Config) {
  std::unique_ptr<dbt::MdaPolicy> Policy = mda::makePolicy(Spec, &Image);
  dbt::Engine Engine(Image, *Policy, Config);
  return Engine.run();
}

/// A loop calling several hot leaf functions, each doing misaligned
/// traffic from its own slot.  Enough distinct warm blocks that a small
/// CodeCacheLimitWords forces mid-run capacity flushes.
guest::GuestImage manyHotFuncsProgram(uint32_t Outer, unsigned NumFuncs) {
  using namespace guest;
  ProgramBuilder B("many-hot-funcs");
  uint32_t Buf = B.dataReserve(64, 8);
  std::vector<ProgramBuilder::Label> Funcs;
  for (unsigned F = 0; F != NumFuncs; ++F)
    Funcs.push_back(B.newLabel());
  B.movri(6, 0);
  ProgramBuilder::Label Loop = B.here();
  for (ProgramBuilder::Label F : Funcs)
    B.call(F);
  B.addi(6, 1);
  B.cmpi(6, static_cast<int32_t>(Outer));
  B.jcc(Cond::B, Loop);
  B.halt();
  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.bind(Funcs[F]);
    B.movri(0, static_cast<int32_t>(Buf + F)); // misaligned for F > 0
    B.stl(mem(0, 1), 6);
    B.ldl(2, mem(0, 1));
    B.chk(2);
    B.ret();
  }
  return B.build();
}

mda::PolicySpec ehSpec() {
  return {mda::MechanismKind::ExceptionHandling, 50, true, 0, false};
}
mda::PolicySpec dpehSpec() {
  return {mda::MechanismKind::Dpeh, 50, false, 4, false};
}

/// Every architecturally observable field of two runs must agree.
void expectSameRun(const dbt::RunResult &A, const dbt::RunResult &B,
                   const char *What) {
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.Checksum, B.Checksum) << What;
  EXPECT_EQ(A.MemoryHash, B.MemoryHash) << What;
  for (unsigned I = 0; I != guest::NumGPR; ++I)
    EXPECT_EQ(A.FinalCpu.Gpr[I], B.FinalCpu.Gpr[I]) << What << " gpr " << I;
}

} // namespace

// -- cache key ---------------------------------------------------------------

TEST(CacheKeyTest, ContentSensitivity) {
  const uint8_t A[] = {1, 2, 3, 4};
  const uint8_t B[] = {1, 2, 3, 5};
  dbt::CacheKey KA = dbt::cacheKeyFromBytes(A, sizeof(A));
  dbt::CacheKey KB = dbt::cacheKeyFromBytes(B, sizeof(B));
  EXPECT_EQ(KA, dbt::cacheKeyFromBytes(A, sizeof(A)));
  EXPECT_NE(KA, KB);
  // Prefix is not the whole: length matters.
  EXPECT_NE(KA, dbt::cacheKeyFromBytes(A, sizeof(A) - 1));
  // The two 64-bit streams are independent: flipping one byte moves
  // both halves.
  EXPECT_NE(KA.Lo, KB.Lo);
  EXPECT_NE(KA.Hi, KB.Hi);
}

// -- lease / refcount lifecycle ---------------------------------------------

TEST(SharedCacheTest, LeaseRefcountLifecycle) {
  dbt::SharedTranslationCache Cache;
  dbt::CachedTranslation T;
  T.GuestPc = 0x1000;
  T.Words = {1, 2, 3};
  dbt::CacheKey Key = dbt::cacheKeyFromBytes(
      reinterpret_cast<const uint8_t *>("block-a"), 7);

  EXPECT_FALSE(Cache.acquire(Key)); // cold miss
  EXPECT_EQ(Cache.misses(), 1u);

  dbt::TranslationLease L1 = Cache.publish(Key, T);
  EXPECT_TRUE(L1);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.liveLeases(), 1u);

  dbt::TranslationLease L2 = Cache.acquire(Key);
  EXPECT_TRUE(L2);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.liveLeases(), 2u);
  EXPECT_EQ(L2.get().GuestPc, 0x1000u);

  L1.release();
  EXPECT_EQ(Cache.liveLeases(), 1u);
  L1.release(); // idempotent
  EXPECT_EQ(Cache.liveLeases(), 1u);
  { dbt::TranslationLease Moved = std::move(L2); }
  EXPECT_EQ(Cache.liveLeases(), 0u);
}

TEST(SharedCacheTest, FirstWriterWinsOnKeyRace) {
  dbt::SharedTranslationCache Cache;
  dbt::CacheKey Key = dbt::cacheKeyFromBytes(
      reinterpret_cast<const uint8_t *>("dup"), 3);
  dbt::CachedTranslation A;
  A.GuestPc = 1;
  A.Words = {42};
  dbt::CachedTranslation B;
  B.GuestPc = 2;
  B.Words = {43};
  dbt::TranslationLease LA = Cache.publish(Key, A);
  dbt::TranslationLease LB = Cache.publish(Key, B);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(LB.get().GuestPc, 1u); // the loser leases the winner's entry
  EXPECT_EQ(Cache.liveLeases(), 2u);
}

TEST(SharedCacheTest, LeasedEntriesAreNeverEvicted) {
  dbt::SharedTranslationCache::Config Cfg;
  Cfg.Shards = 1;
  Cfg.MaxEntries = 2;
  dbt::SharedTranslationCache Cache(Cfg);
  auto KeyOf = [](uint8_t I) {
    return dbt::cacheKeyFromBytes(&I, 1);
  };
  dbt::CachedTranslation T;
  T.Words = {7};
  // Hold a lease on entry 0; fill past capacity.
  dbt::TranslationLease Held = Cache.publish(KeyOf(0), T);
  dbt::TranslationLease L1 = Cache.publish(KeyOf(1), T);
  L1.release();
  dbt::TranslationLease L2 = Cache.publish(KeyOf(2), T);
  L2.release();
  dbt::TranslationLease L3 = Cache.publish(KeyOf(3), T);
  L3.release();
  EXPECT_GT(Cache.evictions(), 0u);
  // The leased entry survived every eviction round.
  EXPECT_TRUE(Cache.acquire(KeyOf(0)));
}

// -- engine integration ------------------------------------------------------

TEST(ServingTest, ColdRunIdenticalToIsolatedEngine) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);
  for (dbt::AotMode Aot : ServedAotModes) {
    SCOPED_TRACE(dbt::aotModeName(Aot));
    dbt::EngineConfig Isolated = servingConfig(nullptr);
    Isolated.Aot = Aot;
    dbt::RunResult RIso = runWith(Image, ehSpec(), Isolated);
    expectMatchesOracle(RIso, O, "isolated");

    dbt::TranslationService Service;
    dbt::EngineConfig Served = servingConfig(&Service);
    Served.Aot = Aot;
    dbt::RunResult RCold = runWith(Image, ehSpec(), Served);
    expectMatchesOracle(RCold, O, "cold serving");
    expectSameRun(RIso, RCold, "cold vs isolated");
    // A cold run misses on every translation and pays full translation
    // price, so even the modeled cycle total matches the isolated engine.
    EXPECT_EQ(RIso.Cycles, RCold.Cycles);
    EXPECT_EQ(RCold.Counters.get("cache.hits"), 0u);
    EXPECT_EQ(RCold.Counters.get("aot.from_cache"), 0u);
    // Every entry was published by one of the run's two producers.
    EXPECT_EQ(RCold.Counters.get("cache.misses") +
                  RCold.Counters.get("aot.translated"),
              Service.cache().inserts());
    EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
  }
}

TEST(ServingTest, WarmRunHitsEverythingAndSkipsTranslation) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);
  for (dbt::AotMode Aot : ServedAotModes) {
    SCOPED_TRACE(dbt::aotModeName(Aot));
    dbt::TranslationService Service;
    dbt::EngineConfig Served = servingConfig(&Service);
    Served.Aot = Aot;

    dbt::RunResult RCold = runWith(Image, ehSpec(), Served);
    dbt::RunResult RWarm = runWith(Image, ehSpec(), Served);
    expectMatchesOracle(RWarm, O, "warm serving");
    expectSameRun(RCold, RWarm, "warm vs cold");

    // Deterministic replay: the second run re-derives the same keys, so
    // every translation is a hit and no re-translation happens at all.
    EXPECT_EQ(RWarm.Counters.get("cache.misses"), 0u);
    EXPECT_GT(RWarm.Counters.get("cache.hits"), 0u);
    EXPECT_EQ(RWarm.Counters.get("cache.hits"),
              RCold.Counters.get("cache.misses"));
    // AOT engaged, and the pre-translator acquired every unit the cold
    // run published.
    EXPECT_EQ(RWarm.Counters.get("aot.blocks") != 0,
              Aot != dbt::AotMode::Off);
    EXPECT_EQ(RWarm.Counters.get("aot.translated"), 0u);
    EXPECT_EQ(RWarm.Counters.get("aot.from_cache"),
              RWarm.Counters.get("aot.blocks"));
    // Hits are priced CacheInstallCyclesPerInst instead of the full
    // translation cost: warm modeled translate-cycles must shrink.
    EXPECT_LT(RWarm.Counters.get("cycles.translate"),
              RCold.Counters.get("cycles.translate"));
    EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";

    if (Aot == dbt::AotMode::Off)
      continue;
    // Cross-producer byte identity: a demand-only run on the same
    // service hits the entries the AOT runs published.  AOT implies the
    // alignment analysis, whose verdicts are part of every plan and so
    // of every key: the demand run turns it on to derive the same keys.
    dbt::EngineConfig Demand = servingConfig(&Service);
    Demand.Analysis = true;
    uint64_t Inserts = Service.cache().inserts();
    dbt::RunResult RDemand = runWith(Image, ehSpec(), Demand);
    expectMatchesOracle(RDemand, O, "demand after AOT");
    dbt::EngineConfig DemandIsolated = Demand;
    DemandIsolated.Service = nullptr;
    expectSameRun(runWith(Image, ehSpec(), DemandIsolated), RDemand,
                  "demand after AOT vs isolated");
    // The AOT runs' demand path published only RCold's misses, so any
    // hit beyond those is a pre-translated unit.
    EXPECT_GT(RDemand.Counters.get("cache.hits"),
              RCold.Counters.get("cache.misses"));
    EXPECT_EQ(RDemand.Counters.get("cache.misses"), 0u);
    EXPECT_EQ(Service.cache().inserts(), Inserts);
    EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
  }
}

TEST(ServingTest, ColdThenWarmModeledCostIsPinned) {
  // Exact modeled cost of one serving tenant (164.gzip, REF input at
  // the serving bench's 20K refs per request, DPEH) run cold and then
  // warm on one shared service.  The warm run pays install instead of
  // translation cycles, so re-pricing either fails here.
  workloads::ScaleConfig Scale;
  Scale.TotalRefs = 20000;
  guest::GuestImage Image = workloads::buildBenchmark(
      *workloads::findBenchmark("164.gzip"), workloads::InputKind::Ref,
      Scale);
  const mda::PolicySpec Spec{mda::MechanismKind::Dpeh, 50, false, 4, false};
  dbt::TranslationService Service;
  dbt::RunResult Cold = runWith(Image, Spec, servingConfig(&Service));
  dbt::RunResult Warm = runWith(Image, Spec, servingConfig(&Service));
  ASSERT_TRUE(Cold.completed());
  ASSERT_TRUE(Warm.completed());
  EXPECT_EQ(Cold.Cycles, 271907u);
  EXPECT_EQ(Cold.Counters.get("host.insts"), 70868u);
  EXPECT_EQ(Warm.Cycles, 239051u);
  EXPECT_EQ(Warm.Counters.get("host.insts"), 70868u);
}

TEST(ServingTest, CapacityFlushReinstallsCachedCopiesAtNewBases) {
  // A tight arena forces mid-run flushes; post-flush re-installs hit
  // the cache and land at different arena bases than the published
  // copy, exercising whole-range relocation under the verifier.
  guest::GuestImage Image = manyHotFuncsProgram(1500, 6);
  Oracle O = interpretOracle(Image);
  dbt::TranslationService Service;
  dbt::EngineConfig Config = servingConfig(&Service);
  Config.CodeCacheLimitWords = 200;
  dbt::RunResult R = runWith(Image, ehSpec(), Config);
  expectMatchesOracle(R, O, "capacity-flush serving");
  EXPECT_GT(R.Counters.get("dbt.flushes"), 0u);
  EXPECT_GT(R.Counters.get("cache.hits"), 0u);
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";

  dbt::EngineConfig Isolated = Config;
  Isolated.Service = nullptr;
  expectSameRun(R, runWith(Image, ehSpec(), Isolated),
                "capacity-flush vs isolated");
}

TEST(ServingTest, HostileSmcTenantsMatchOracleAndCannotPoison) {
  // Hostile tenants rewrite their own code: the rewritten bytes key
  // differently, so they can only miss — the benign tenant sharing the
  // cache must stay byte-identical to its oracle.
  dbt::TranslationService Service;
  guest::GuestImage Benign = misalignedSumProgram(4000);
  Oracle BenignO = interpretOracle(Benign);

  for (const workloads::HostileProgram &P : workloads::hostileCatalog()) {
    Oracle O = interpretOracle(P.Image);
    dbt::EngineConfig Config = servingConfig(&Service);
    Config.Analysis = true;
    dbt::RunResult R = runWith(P.Image, dpehSpec(), Config);
    expectMatchesOracle(R, O, P.Name.c_str());
  }
  dbt::RunResult R = runWith(Benign, dpehSpec(), servingConfig(&Service));
  expectMatchesOracle(R, BenignO, "benign tenant after hostile runs");
  EXPECT_EQ(Service.cache().liveLeases(), 0u) << "lease leak";
}

TEST(ServingTest, ConcurrentMixedTenantsByteIdenticalToOracles) {
  // N threads × mixed benign + self-modifying guests against ONE shared
  // cache, Verify on.  Every run must reproduce its isolated oracle
  // exactly, and the cache must drain to zero leases at shutdown.
  struct Tenant {
    guest::GuestImage Image;
    mda::PolicySpec Spec;
    dbt::RunResult Expected;
  };
  std::vector<Tenant> Tenants;
  for (uint32_t Iters : {2000u, 3000u, 4000u})
    Tenants.push_back({misalignedSumProgram(Iters), ehSpec(), {}});
  for (const workloads::HostileProgram &P : workloads::hostileCatalog())
    Tenants.push_back({P.Image, dpehSpec(), {}});
  for (Tenant &T : Tenants) {
    dbt::EngineConfig Config = servingConfig(nullptr);
    Config.Analysis = true;
    T.Expected = runWith(T.Image, T.Spec, Config);
  }

  dbt::TranslationService Service;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned RoundsPerThread = 3;
  std::vector<std::vector<dbt::RunResult>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    Threads.emplace_back([&, TI] {
      for (unsigned R = 0; R != RoundsPerThread; ++R) {
        const Tenant &T = Tenants[(TI + R) % Tenants.size()];
        dbt::EngineConfig Config = servingConfig(&Service);
        Config.Analysis = true;
        Got[TI].push_back(runWith(T.Image, T.Spec, Config));
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    for (unsigned R = 0; R != RoundsPerThread; ++R)
      expectSameRun(Got[TI][R], Tenants[(TI + R) % Tenants.size()].Expected,
                    "concurrent tenant");
  EXPECT_EQ(Service.cache().liveLeases(), 0u)
      << "refcount leak at shutdown";
  EXPECT_GT(Service.cache().hits(), 0u);
}

// -- disk persistence --------------------------------------------------------

namespace {

const char *ArtifactPath = "serving_test_cache.bin";

/// Populate a service by running a benchmark through it.
void warmService(dbt::TranslationService &Service) {
  guest::GuestImage Image = misalignedSumProgram(4000);
  runWith(Image, ehSpec(), servingConfig(&Service));
  ASSERT_GT(Service.cache().entries(), 0u);
}

std::vector<uint8_t> slurp(const char *Path) {
  std::FILE *F = std::fopen(Path, "rb");
  EXPECT_NE(F, nullptr);
  std::vector<uint8_t> Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

void spit(const char *Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path, "wb");
  ASSERT_NE(F, nullptr);
  // fwrite must not see the null data() of an empty vector.
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  std::fclose(F);
}

} // namespace

TEST(ServingPersistTest, DiskWarmedStartPerformsNoRetranslation) {
  dbt::TranslationService Producer;
  warmService(Producer);
  std::string Err;
  ASSERT_TRUE(Producer.save(ArtifactPath, &Err)) << Err;

  dbt::TranslationService Consumer;
  uint64_t Before = Consumer.cache().entries();
  ASSERT_TRUE(Consumer.load(ArtifactPath, nullptr, &Err)) << Err;
  EXPECT_EQ(Consumer.cache().entries() - Before,
            Producer.cache().entries());

  guest::GuestImage Image = misalignedSumProgram(4000);
  Oracle O = interpretOracle(Image);
  dbt::RunResult R = runWith(Image, ehSpec(), servingConfig(&Consumer));
  expectMatchesOracle(R, O, "disk-warmed");
  // The whole point of persistence: a warm fleet start re-translates
  // nothing for a known image.
  EXPECT_EQ(R.Counters.get("cache.misses"), 0u);
  EXPECT_GT(R.Counters.get("cache.hits"), 0u);
  std::remove(ArtifactPath);
}

TEST(ServingPersistTest, SaveIsDeterministic) {
  dbt::TranslationService A;
  dbt::TranslationService B;
  warmService(A);
  warmService(B);
  ASSERT_TRUE(A.save(ArtifactPath));
  std::vector<uint8_t> BytesA = slurp(ArtifactPath);
  ASSERT_TRUE(B.save(ArtifactPath));
  EXPECT_EQ(BytesA, slurp(ArtifactPath));
  std::remove(ArtifactPath);
}

TEST(ServingPersistTest, CorruptArtifactsAreRejectedWhole) {
  dbt::TranslationService Producer;
  warmService(Producer);
  ASSERT_TRUE(Producer.save(ArtifactPath));
  const std::vector<uint8_t> Good = slurp(ArtifactPath);
  ASSERT_GT(Good.size(), 64u);

  auto ExpectRejected = [&](const std::vector<uint8_t> &Bytes,
                            const char *What) {
    spit(ArtifactPath, Bytes);
    dbt::TranslationService Victim;
    std::string Err;
    EXPECT_FALSE(Victim.load(ArtifactPath, nullptr, &Err)) << What;
    EXPECT_FALSE(Err.empty()) << What;
    // Atomic rejection: nothing was merged, so nothing corrupt can
    // ever be executed.
    EXPECT_EQ(Victim.cache().entries(), 0u) << What;
  };

  // Truncation (header survives, payload short).
  std::vector<uint8_t> Truncated(Good.begin(), Good.end() - 9);
  ExpectRejected(Truncated, "truncated");
  // Single bit flip deep in the payload.
  std::vector<uint8_t> Flipped = Good;
  Flipped[Good.size() / 2] ^= 0x10;
  ExpectRejected(Flipped, "bit-flipped payload");
  // Bit flip in the header's entry count.
  std::vector<uint8_t> BadCount = Good;
  BadCount[8] ^= 0x01;
  ExpectRejected(BadCount, "corrupt entry count");
  // Wrong magic.
  std::vector<uint8_t> BadMagic = Good;
  BadMagic[0] ^= 0xff;
  ExpectRejected(BadMagic, "bad magic");
  // Unsupported future version.
  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 0x7f;
  ExpectRejected(BadVersion, "bad version");
  // Empty file.
  ExpectRejected({}, "empty file");

  // Bounds the checksum cannot catch: patch one field of a one-entry
  // artifact and recompute the header's payload checksum, so the entry
  // parser itself must refuse the value.  The entry has 8 host words,
  // one inline-cache way at word 2 and one guest range; the serialized
  // entry ends with way begin, constituent count, range count, range
  // Lo, range Hi and fused-site count.
  {
    dbt::TranslationService One;
    dbt::CachedTranslation T;
    T.Words.assign(8, 0);
    T.IcSites.push_back({0, {2}});
    T.GuestRanges.push_back({0x1000, 0x1040});
    One.publish({1, 2}, std::move(T));
    ASSERT_TRUE(One.save(ArtifactPath));
  }
  const std::vector<uint8_t> OneEntry = slurp(ArtifactPath);
  const size_t WayBeginAt = OneEntry.size() - 24;
  const size_t RangeHiAt = OneEntry.size() - 8;
  auto Patched = [&](size_t At, uint32_t V) {
    std::vector<uint8_t> Bytes = OneEntry;
    for (int I = 0; I != 4; ++I)
      Bytes[At + I] = static_cast<uint8_t>(V >> (8 * I));
    // Header: magic, version, count, payload length, payload FNV-1a.
    uint64_t Sum = dbt::fnv1a(Bytes.data() + 32, Bytes.size() - 32);
    for (int I = 0; I != 8; ++I)
      Bytes[24 + I] = static_cast<uint8_t>(Sum >> (8 * I));
    return Bytes;
  };
  auto ExpectLoads = [&](const std::vector<uint8_t> &Bytes,
                         const char *What) {
    spit(ArtifactPath, Bytes);
    dbt::TranslationService Victim;
    EXPECT_TRUE(Victim.load(ArtifactPath)) << What;
    EXPECT_EQ(Victim.cache().entries(), 1u) << What;
  };
  // The offsets hold the published values, and in-bounds patches still
  // load (a way may end exactly at the last word, a guest range exactly
  // at the end of guest memory).
  ASSERT_EQ(Patched(WayBeginAt, 2), OneEntry);
  ASSERT_EQ(Patched(RangeHiAt, 0x1040), OneEntry);
  ExpectLoads(OneEntry, "published entry");
  ExpectLoads(Patched(WayBeginAt, 0), "way begin 0");
  ExpectLoads(Patched(RangeHiAt, guest::layout::MemorySize),
              "range ending at the end of guest memory");
  // Inline-cache way begins past the word range, including ones where
  // begin + way length wraps around in 32 bits.
  ExpectRejected(Patched(WayBeginAt, 3), "way begin 3 past the end");
  ExpectRejected(Patched(WayBeginAt, 0xFFFFFFFEu), "way begin wraps (-2)");
  ExpectRejected(Patched(WayBeginAt, 0xFFFFFFFAu), "way begin wraps (-6)");
  // Guest ranges past the end of guest memory.
  ExpectRejected(Patched(RangeHiAt, guest::layout::MemorySize + 1),
                 "range past guest memory");
  ExpectRejected(Patched(RangeHiAt, 0xFFFFFFFFu), "range end 0xFFFFFFFF");

  // The pristine artifact still loads after all that.
  spit(ArtifactPath, Good);
  dbt::TranslationService Ok;
  EXPECT_TRUE(Ok.load(ArtifactPath));
  EXPECT_EQ(Ok.cache().entries(), Producer.cache().entries());
  std::remove(ArtifactPath);
}
