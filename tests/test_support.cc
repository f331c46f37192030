/**
 * @file
 * Unit tests for the support library: bit utilities, RNG, Zipf
 * sampling, statistics, and table rendering.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "support/bits.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace
{

using namespace ccr;

TEST(Bits, PopCount)
{
    EXPECT_EQ(popCount(0), 0);
    EXPECT_EQ(popCount(1), 1);
    EXPECT_EQ(popCount(0xff), 8);
    EXPECT_EQ(popCount(~0ULL), 64);
    EXPECT_EQ(popCount(0x8000000000000001ULL), 2);
}

TEST(Bits, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
    EXPECT_FALSE(isPowerOf2((1ULL << 63) + 1));
}

TEST(Bits, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1025), 11);
    EXPECT_EQ(ceilLog2(1), 0);
}

TEST(Bits, Align)
{
    EXPECT_EQ(alignDown(17, 8), 16u);
    EXPECT_EQ(alignUp(17, 8), 24u);
    EXPECT_EQ(alignUp(16, 8), 16u);
    EXPECT_EQ(alignDown(16, 8), 16u);
    EXPECT_EQ(alignUp(0, 16), 0u);
}

TEST(Bits, BitsExtract)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
}

TEST(Bits, Mix64Distributes)
{
    // Nearby inputs must map to very different outputs.
    const auto a = mix64(1);
    const auto b = mix64(2);
    EXPECT_NE(a, b);
    EXPECT_GT(popCount(a ^ b), 16);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, NextDoubleUnit)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, RankZeroMostPopular)
{
    Rng rng(1);
    ZipfSampler zipf(16, 1.2);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[4]);
    for (const auto &[k, v] : counts)
        EXPECT_LT(k, 16u);
}

TEST(Zipf, ThetaZeroIsUniformish)
{
    Rng rng(2);
    ZipfSampler zipf(8, 0.0);
    std::map<std::size_t, int> counts;
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (const auto &[k, v] : counts)
        EXPECT_NEAR(static_cast<double>(v) / n, 0.125, 0.015);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(0, 100, 10);
    h.record(5);
    h.record(15);
    h.record(15);
    h.record(-1);
    h.record(100);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Stats, HistogramMean)
{
    Histogram h(0, 10, 10);
    h.record(2);
    h.record(4);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Stats, HistogramWeighted)
{
    Histogram h(0, 10, 2);
    h.record(1, 7);
    EXPECT_EQ(h.samples(), 7u);
    EXPECT_EQ(h.buckets()[0], 7u);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const auto s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatting)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
    EXPECT_EQ(Table::pct(0.123, 0), "12%");
}

/** Property sweep: alignUp/alignDown bracket the value. */
class AlignSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AlignSweep, BracketsValue)
{
    const std::uint64_t v = GetParam();
    for (const std::uint64_t a : {1ULL, 2ULL, 8ULL, 64ULL, 4096ULL}) {
        EXPECT_LE(alignDown(v, a), v);
        EXPECT_GE(alignUp(v, a), v);
        EXPECT_EQ(alignDown(v, a) % a, 0u);
        EXPECT_EQ(alignUp(v, a) % a, 0u);
        EXPECT_LT(alignUp(v, a) - alignDown(v, a), 2 * a);
    }
}

INSTANTIATE_TEST_SUITE_P(Values, AlignSweep,
                         ::testing::Values(0, 1, 7, 63, 4095, 4096,
                                           123456789, 1ULL << 40));

} // namespace
