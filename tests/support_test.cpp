//===- tests/support_test.cpp - Support library unit tests ----------------==//
//
// Part of the MDABT project (CGO 2009 MDA-handling reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CacheModel.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

using namespace mdabt;

TEST(RngTest, DeterministicAcrossInstances) {
  RNG A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(RngTest, BelowStaysInBounds) {
  RNG R(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40})
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.below(Bound), Bound);
}

TEST(RngTest, RangeInclusive) {
  RNG R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, ChanceExtremes) {
  RNG R(11);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  RNG R(13);
  int Hits = 0;
  for (int I = 0; I != 10000; ++I)
    Hits += R.chance(0.25);
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.03);
}

TEST(FormatTest, Basic) {
  EXPECT_EQ(format("x=%d y=%s", 5, "ok"), "x=5 y=ok");
  EXPECT_EQ(format("%04x", 0xabc), "0abc");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(FormatTest, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(1234567), "1,234,567");
  EXPECT_EQ(withCommas(1000000000ULL), "1,000,000,000");
}

TEST(FormatTest, PaperCount) {
  EXPECT_EQ(paperCount(435), "435");
  EXPECT_EQ(paperCount(999999), "999999");
  // Large values use the paper's scientific style.
  EXPECT_EQ(paperCount(8320000000ULL), "8.32E+09");
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(percent(0.1267), "12.67%");
  EXPECT_EQ(signedPercent(0.045), "+4.5%");
  EXPECT_EQ(signedPercent(-0.08), "-8.0%");
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(StatsTest, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
  EXPECT_NEAR(arithmeticMean({1.0, 2.0, 3.0}), 2.0, 1e-12);
}

TEST(StatsTest, CounterBag) {
  CounterBag C;
  EXPECT_EQ(C.get("x"), 0u);
  C.add("x");
  C.add("x", 4);
  C.add("y", 2);
  EXPECT_EQ(C.get("x"), 5u);
  EXPECT_EQ(C.get("y"), 2u);
  C.set("z", 7);
  C.set("x", 6);
  EXPECT_EQ(C.get("x"), 6u);
  EXPECT_EQ(C.get("z"), 7u);
  // Insertion order is stable.
  ASSERT_EQ(C.entries().size(), 3u);
  EXPECT_EQ(C.entries()[0].first, "x");
  EXPECT_EQ(C.entries()[1].first, "y");
  EXPECT_EQ(C.entries()[2].first, "z");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "234"});
  std::string Text = T.toText();
  EXPECT_NE(Text.find("name       value"), std::string::npos);
  EXPECT_NE(Text.find("long-name  234"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter T({"a", "b", "c"});
  T.addRow({"x"});
  EXPECT_EQ(T.numRows(), 1u);
  EXPECT_NE(T.toCsv().find("x,,"), std::string::npos);
}

TEST(TablePrinterTest, Csv) {
  TablePrinter T({"h1", "h2"});
  T.addRow({"1", "2"});
  EXPECT_EQ(T.toCsv(), "h1,h2\n1,2\n");
}

TEST(CacheTest, HitsAfterFill) {
  Cache C({1024, 2, 64});
  EXPECT_FALSE(C.access(0));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(63));  // same line
  EXPECT_FALSE(C.access(64)); // next line
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(CacheTest, LruEviction) {
  // 2 ways, 64B lines, 1024B total -> 8 sets.  Lines 0, 8, 16 of the
  // address space map to set 0 (stride 8*64 = 512).
  Cache C({1024, 2, 64});
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(512));
  EXPECT_TRUE(C.access(0));    // keep 0 most recent
  EXPECT_FALSE(C.access(1024)); // evicts 512 (LRU)
  EXPECT_TRUE(C.access(0));
  EXPECT_FALSE(C.access(512)); // 512 was evicted
}

TEST(CacheTest, DirectMapped) {
  Cache C({256, 1, 64}); // 4 sets
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(256)); // conflicts with 0
  EXPECT_FALSE(C.access(0));   // 0 was evicted
}

TEST(CacheTest, ResetClears) {
  Cache C({256, 1, 64});
  C.access(0);
  C.reset();
  EXPECT_FALSE(C.access(0));
  EXPECT_EQ(C.misses(), 1u);
}

TEST(MemoryHierarchyTest, PenaltyTiers) {
  MemoryHierarchy H;
  uint32_t Cold = H.data(0x1000);
  EXPECT_EQ(Cold, H.Costs.L2HitCycles + H.Costs.MemoryCycles);
  EXPECT_EQ(H.data(0x1000), 0u); // L1 hit
  // L1I and L1D are split: an instruction fetch of the same line still
  // misses L1I but hits the (unified) L2.
  EXPECT_EQ(H.fetch(0x1000), H.Costs.L2HitCycles);
}

TEST(TablePrinterTest, CsvStripsThousandsSeparators) {
  TablePrinter T({"name", "cycles"});
  T.addRow({"a", "1,234,567"});
  EXPECT_EQ(T.toCsv(), "name,cycles\na,1234567\n");
}
