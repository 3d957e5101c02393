/**
 * @file
 * Unit tests for src/common: bit ops, RNG, statistics, tables,
 * scale parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace membw {
namespace {

TEST(BitOps, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(BitOps, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1ULL << 63), 63u);
}

TEST(BitOps, Align)
{
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignDown(0x1230, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1230, 16), 0x1230u);
}

TEST(BitOps, DivCeil)
{
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(ByteLiterals, KibMib)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(64_KiB, 65536u);
    EXPECT_EQ(1_MiB, 1048576u);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 16 && !differ; ++i)
        differ = a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, BelowInRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BurstBounds)
{
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        const auto b = rng.burst(4.0, 10);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, 10u);
    }
}

TEST(Stats, Mean)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, Geomean)
{
    const std::vector<double> xs{1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
    EXPECT_THROW(geomean(std::vector<double>{1.0, -1.0}), FatalError);
}

TEST(Stats, LinearFitExact)
{
    const std::vector<double> x{0, 1, 2, 3};
    const std::vector<double> y{1, 3, 5, 7};
    const LinearFit f = linearFit(x, y);
    EXPECT_NEAR(f.slope, 2.0, 1e-12);
    EXPECT_NEAR(f.intercept, 1.0, 1e-12);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, ExponentialFitRecoversGrowth)
{
    // y doubles every step: annual factor must be 2.
    std::vector<double> x, y;
    for (int i = 0; i < 10; ++i) {
        x.push_back(static_cast<double>(i));
        y.push_back(std::pow(2.0, i) * 5.0);
    }
    const GrowthFit g = exponentialFit(x, y, 0.0);
    EXPECT_NEAR(g.annualFactor, 2.0, 1e-9);
    EXPECT_NEAR(g.valueAtX0, 5.0, 1e-9);
    EXPECT_NEAR(g.r2, 1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Parse, ScaleIsFiniteAndPositive)
{
    for (const char *good : {"1", "0.05", "2.5", "1e-3"}) {
        const Result<double> v = tryParseScale(std::string(good));
        ASSERT_TRUE(v.ok()) << good;
        EXPECT_EQ(v.value(), std::stod(good));
    }
    for (const char *bad : {"0", "-1", "-0.001", "-0", "nan", "inf",
                            "1e400", "0.5x", ""}) {
        const Result<double> v = tryParseScale(std::string(bad));
        ASSERT_FALSE(v.ok()) << bad;
        EXPECT_EQ(v.error().code, Errc::BadValue) << bad;
    }
    EXPECT_TRUE(tryParseScale(0.25).ok());
    EXPECT_FALSE(tryParseScale(0.0).ok());
    EXPECT_FALSE(tryParseScale(-1.0).ok());
    EXPECT_FALSE(tryParseScale(std::nan("")).ok());
    EXPECT_FALSE(tryParseScale(HUGE_VAL).ok());
}

TEST(Parse, ExperimentIsOneLetterAToF)
{
    for (char c = 'A'; c <= 'F'; ++c)
        EXPECT_EQ(tryParseExperiment(std::string(1, c)).value(), c);
    for (const char *bad : {"BOGUS", "Fx", "f", "G", "", "all"}) {
        const Result<char> v = tryParseExperiment(bad);
        ASSERT_FALSE(v.ok()) << bad;
        EXPECT_EQ(v.error().code, Errc::BadValue) << bad;
    }
}

} // namespace
} // namespace membw
