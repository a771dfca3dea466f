#include <gtest/gtest.h>

#include "OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/InvariantChecker.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

void
churn(TinyOram &oram, int ops, std::uint64_t seed,
      std::uint64_t space)
{
    Rng rng(seed);
    Cycles t = 0;
    for (int i = 0; i < ops; ++i) {
        Addr a = rng.below(space);
        Op op = rng.chance(0.3) ? Op::Write : Op::Read;
        t = oram.access(a, op, t + 200).completeAt;
    }
}

} // namespace

TEST(ShadowSemantics, ServeFromShadowOffNeverUsesStashShadows)
{
    OramConfig cfg = smallConfig();
    cfg.serveFromShadow = false;
    OramStack fx(Scheme::Shadow, cfg);
    churn(fx.oram(), 2000, 71, 1 << 10);
    EXPECT_EQ(fx.oram().stats().shadowStashHits, 0u);
    // Early forwarding from tree shadows still works: that part is
    // just block identification during the path read.
    EXPECT_GT(fx.oram().stats().shadowForwards, 0u);
}

TEST(ShadowSemantics, RecirculationOffStillConsistent)
{
    OramConfig cfg = smallConfig();
    cfg.recirculateShadows = false;
    OramStack fx(Scheme::Shadow, cfg);
    churn(fx.oram(), 1500, 73, 1 << 10);
    InvariantReport report = checkInvariants(fx.oram());
    EXPECT_TRUE(report.ok) << report.firstViolation;
    EXPECT_GT(fx.oram().stats().shadowsWritten, 0u);
}

TEST(ShadowSemantics, RecirculationIncreasesShadowLifetime)
{
    auto countTreeShadows = [](bool recirculate) {
        OramConfig cfg = smallConfig();
        cfg.recirculateShadows = recirculate;
        OramStack fx(Scheme::Shadow, cfg);
        churn(fx.oram(), 2000, 75, 1 << 10);
        return fx.oram().tree().countOccupied() -
               fx.oram().tree().countReal();
    };
    // Re-offering vacuumed shadows must not *reduce* the population;
    // typically it increases it.
    EXPECT_GE(countTreeShadows(true) * 10,
              countTreeShadows(false) * 9);
}

TEST(ShadowSemantics, WriteToShadowStashEntryFetchesRealCopy)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    churn(fx.oram(), 1200, 77, 1 << 10);

    // Find an address with a shadow (and no real copy) in the stash.
    Addr victim = kInvalidAddr;
    fx.oram().stash().forEach([&](const StashEntry &e) {
        if (e.isShadow() && victim == kInvalidAddr)
            victim = e.addr;
    });
    if (victim == kInvalidAddr)
        GTEST_SKIP() << "no shadow in stash after churn";

    const std::uint64_t pathReadsBefore = fx.oram().stats().pathReads;
    std::vector<std::uint64_t> data(8, 0x77);
    fx.oram().access(victim, Op::Write, 1 << 24, &data);
    // A write may not be served by the (read-only) shadow copy.
    EXPECT_GT(fx.oram().stats().pathReads, pathReadsBefore);
    EXPECT_EQ(fx.oram().peekPayload(victim), data);
}

TEST(ShadowSemantics, ReadHitOnStashShadowAvoidsPathRead)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    churn(fx.oram(), 1200, 79, 1 << 10);
    Addr victim = kInvalidAddr;
    fx.oram().stash().forEach([&](const StashEntry &e) {
        if (e.isShadow() && victim == kInvalidAddr)
            victim = e.addr;
    });
    if (victim == kInvalidAddr)
        GTEST_SKIP() << "no shadow in stash after churn";

    const std::uint64_t pathReadsBefore = fx.oram().stats().pathReads;
    AccessResult r = fx.oram().access(victim, Op::Read, 1 << 24);
    EXPECT_TRUE(r.stashHit);
    EXPECT_TRUE(r.usedShadow);
    EXPECT_EQ(fx.oram().stats().pathReads, pathReadsBefore);
}

TEST(ShadowSemantics, ShadowForwardNeverReturnsStaleData)
{
    // Hammer one address with versioned writes between churn, and
    // verify reads always see the newest version (the version-match
    // asserts inside the controller back this up globally).
    OramConfig cfg = smallConfig();
    OramStack fx(Scheme::Shadow, cfg);
    Rng rng(81);
    Cycles t = 0;
    std::uint64_t counter = 0;
    for (int round = 0; round < 60; ++round) {
        std::vector<std::uint64_t> data(8, ++counter);
        t = fx.oram().access(500, Op::Write, t + 100, &data)
                .completeAt;
        for (int i = 0; i < 30; ++i)
            t = fx.oram().access(rng.below(1 << 10), Op::Read,
                                t + 100)
                    .completeAt;
        EXPECT_EQ(fx.oram().peekPayload(500)[0], counter);
    }
}

TEST(ShadowSemantics, XorCompressionWritesNoShadowForwards)
{
    OramConfig cfg = smallConfig();
    cfg.xorCompression = true;
    OramStack fx(Scheme::Shadow, cfg);
    churn(fx.oram(), 1000, 83, 1 << 10);
    EXPECT_EQ(fx.oram().stats().shadowForwards, 0u);
}
