#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/InvariantChecker.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

void
randomWorkout(TinyOram &oram, int ops, std::uint64_t seed,
              std::uint64_t addrSpace)
{
    Rng rng(seed);
    Cycles t = 0;
    for (int i = 0; i < ops; ++i) {
        Addr a = rng.below(addrSpace);
        Op op = rng.chance(0.3) ? Op::Write : Op::Read;
        t = oram.access(a, op, t + rng.below(500)).completeAt;
        if (rng.chance(0.05))
            t = oram.dummyAccess(t + 100);
    }
}

} // namespace

TEST(Invariants, FreshTinyOramIsClean)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
    EXPECT_EQ(report.shadowCopies, 0u);
}

TEST(Invariants, TinyOramStaysCleanUnderLoad)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    randomWorkout(fx.oram(), 1500, 21, 1 << 10);
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
    EXPECT_EQ(report.shadowCopies, 0u);  // No policy, no shadows.
}

class ShadowInvariants
    : public ::testing::TestWithParam<ShadowMode>
{
};

TEST_P(ShadowInvariants, HoldUnderRandomLoad)
{
    ShadowConfig scfg;
    scfg.mode = GetParam();
    scfg.staticLevel = 4;
    OramStack fx(Scheme::Shadow, smallConfig(), scfg);
    randomWorkout(fx.oram(), 1500, 23, 1 << 10);
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
    EXPECT_GT(report.shadowCopies, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ShadowInvariants,
    ::testing::Values(ShadowMode::RdOnly, ShadowMode::HdOnly,
                      ShadowMode::StaticPartition,
                      ShadowMode::DynamicPartition));

TEST(Invariants, HoldWithRecursivePosMapAndShadows)
{
    OramStack fx(Scheme::Shadow, recursiveConfig());
    randomWorkout(fx.oram(), 1200, 29, 1 << 12);
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
}

TEST(Invariants, HoldWithTreetopAndShadows)
{
    OramConfig cfg = smallConfig();
    cfg.treetopLevels = 3;
    OramStack fx(Scheme::Shadow, cfg);
    randomWorkout(fx.oram(), 1200, 31, 1 << 10);
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
}

TEST(Invariants, PeriodicChecksDuringLongRun)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    Rng rng(37);
    Cycles t = 0;
    for (int chunk = 0; chunk < 8; ++chunk) {
        for (int i = 0; i < 250; ++i) {
            Addr a = rng.below(1 << 10);
            Op op = rng.chance(0.4) ? Op::Write : Op::Read;
            t = fx.oram().access(a, op, t + 200).completeAt;
        }
        InvariantReport report = checkInvariants(fx.oram());
        ASSERT_TRUE(report.ok)
            << "after chunk " << chunk << ": "
            << report.firstViolation;
    }
}
