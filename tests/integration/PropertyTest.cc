#include <gtest/gtest.h>

#include <tuple>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/InvariantChecker.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

struct PropertyParams
{
    unsigned z;
    unsigned a;
    ShadowMode mode;
    std::uint64_t seed;
};

std::string
paramName(const ::testing::TestParamInfo<PropertyParams> &info)
{
    const char *mode = "";
    switch (info.param.mode) {
      case ShadowMode::RdOnly: mode = "Rd"; break;
      case ShadowMode::HdOnly: mode = "Hd"; break;
      case ShadowMode::StaticPartition: mode = "Static"; break;
      case ShadowMode::DynamicPartition: mode = "Dynamic"; break;
    }
    return std::string("Z") + std::to_string(info.param.z) + "A" +
           std::to_string(info.param.a) + mode + "S" +
           std::to_string(info.param.seed);
}

} // namespace

class OramProperties
    : public ::testing::TestWithParam<PropertyParams>
{
};

/**
 * Property sweep over (Z, A, policy, seed): after a random mixed
 * workload with dummy accesses interleaved, every structural
 * invariant must hold, every payload must match its version pattern
 * implicitly (checked by the controller's internal asserts), and the
 * stash must never overflow.
 */
TEST_P(OramProperties, InvariantsAndStabilityUnderRandomLoad)
{
    const PropertyParams p = GetParam();
    OramConfig cfg = smallConfig();
    cfg.slotsPerBucket = p.z;
    cfg.evictionRate = p.a;
    cfg.seed = p.seed;

    ShadowConfig scfg;
    scfg.mode = p.mode;
    scfg.staticLevel = 3;
    OramStack fx(Scheme::Shadow, cfg, scfg);

    Rng rng(p.seed * 1000 + 17);
    Cycles t = 0;
    for (int i = 0; i < 900; ++i) {
        Addr a = rng.below(1 << 10);
        Op op = rng.chance(0.35) ? Op::Write : Op::Read;
        t = fx.oram().access(a, op, t + rng.below(800)).completeAt;
        if (rng.chance(0.08))
            t = fx.oram().dummyAccess(t + 50);
    }

    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
    EXPECT_EQ(fx.oram().stash().stats().overflowEvents, 0u);

    // Conservation: every block is somewhere, exactly once.
    EXPECT_EQ(fx.oram().tree().countReal() +
                  fx.oram().stash().realCount(),
              fx.oram().geometry().totalBlocks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OramProperties,
    ::testing::Values(
        PropertyParams{4, 4, ShadowMode::DynamicPartition, 1},
        PropertyParams{5, 5, ShadowMode::RdOnly, 2},
        PropertyParams{5, 5, ShadowMode::HdOnly, 3},
        PropertyParams{5, 5, ShadowMode::StaticPartition, 4},
        PropertyParams{5, 5, ShadowMode::DynamicPartition, 5},
        PropertyParams{6, 5, ShadowMode::DynamicPartition, 6},
        PropertyParams{5, 3, ShadowMode::StaticPartition, 7},
        PropertyParams{6, 6, ShadowMode::RdOnly, 8}),
    paramName);

class StashOverflowEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Paper Section IV-B2: shadow blocks must not change the stash
 * occupancy distribution of real blocks.  Run Tiny and Shadow with
 * the same seed and identical request streams and compare the peak
 * real occupancy.
 */
TEST_P(StashOverflowEquivalence, PeakRealOccupancyMatchesTiny)
{
    OramConfig cfg = smallConfig();
    cfg.seed = GetParam();
    cfg.serveFromShadow = false;  // keep request streams identical

    OramStack tiny(Scheme::Tiny, cfg);
    OramStack shadow(Scheme::Shadow, cfg);

    Rng rng(GetParam() * 31 + 5);
    std::vector<std::pair<Addr, Op>> ops;
    for (int i = 0; i < 1200; ++i) {
        ops.emplace_back(rng.below(1 << 10),
                         rng.chance(0.3) ? Op::Write : Op::Read);
    }
    auto drive = [&](TinyOram &oram) {
        Cycles t = 0;
        for (auto &[a, op] : ops)
            t = oram.access(a, op, t + 100).completeAt;
    };
    drive(tiny.oram());
    drive(shadow.oram());

    EXPECT_EQ(tiny.oram().stash().stats().peakReal,
              shadow.oram().stash().stats().peakReal);
    EXPECT_EQ(tiny.oram().stash().stats().overflowEvents,
              shadow.oram().stash().stats().overflowEvents);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StashOverflowEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));
