#include <gtest/gtest.h>

#include "SimTestUtil.hh"
#include "sim/System.hh"

using namespace sboram;
using sboram::test::smallSystem;

namespace {

constexpr std::uint64_t kMisses = 2500;

} // namespace

TEST(System, MetricsDecomposePerEquationOne)
{
    RunMetrics m = runWorkload(smallSystem(Scheme::Tiny), "sjeng",
                               kMisses, 1);
    EXPECT_GT(m.execTime, 0u);
    EXPECT_NEAR(m.dataAccessTime + m.driTime,
                static_cast<double>(m.execTime),
                static_cast<double>(m.execTime) * 1e-9);
    EXPECT_GE(m.dataAccessTime, 0.0);
    EXPECT_GE(m.driTime, 0.0);
}

TEST(System, InsecureFasterThanTiny)
{
    RunMetrics ins = runWorkload(smallSystem(Scheme::Insecure),
                                 "omnetpp", kMisses, 1);
    RunMetrics tiny = runWorkload(smallSystem(Scheme::Tiny),
                                  "omnetpp", kMisses, 1);
    EXPECT_LT(ins.execTime, tiny.execTime);
    // The paper reports ~2-8x slowdowns without timing protection.
    const double slowdown = static_cast<double>(tiny.execTime) /
                            static_cast<double>(ins.execTime);
    EXPECT_GT(slowdown, 1.5);
    EXPECT_LT(slowdown, 30.0);
}

TEST(System, ShadowNotSlowerThanTiny)
{
    RunMetrics tiny = runWorkload(smallSystem(Scheme::Tiny), "mcf",
                                  kMisses, 1);
    SystemConfig sh = smallSystem(Scheme::Shadow);
    sh.shadow.mode = ShadowMode::DynamicPartition;
    RunMetrics shadow = runWorkload(sh, "mcf", kMisses, 1);
    EXPECT_LE(static_cast<double>(shadow.execTime),
              static_cast<double>(tiny.execTime) * 1.02);
    EXPECT_GT(shadow.shadowsWritten, 0u);
}

TEST(System, TimingProtectionAddsDummies)
{
    SystemConfig cfg = smallSystem(Scheme::Tiny);
    cfg.timingProtection = true;
    RunMetrics m = runWorkload(cfg, "gobmk", kMisses, 1);
    EXPECT_GT(m.dummyRequests, 0u);

    SystemConfig noTp = smallSystem(Scheme::Tiny);
    RunMetrics m2 = runWorkload(noTp, "gobmk", kMisses, 1);
    EXPECT_EQ(m2.dummyRequests, 0u);
    // TP never speeds the program up.
    EXPECT_GE(m.execTime, m2.execTime);
}

TEST(System, RdDupShrinksDri)
{
    SystemConfig tiny = smallSystem(Scheme::Tiny);
    SystemConfig rd = smallSystem(Scheme::Shadow);
    rd.shadow.mode = ShadowMode::RdOnly;
    RunMetrics mt = runWorkload(tiny, "h264ref", kMisses, 1);
    RunMetrics mr = runWorkload(rd, "h264ref", kMisses, 1);
    EXPECT_LT(mr.driTime, mt.driTime);
    EXPECT_GT(mr.shadowForwards, 0u);
}

TEST(System, HdDupProducesShadowStashHits)
{
    SystemConfig hd = smallSystem(Scheme::Shadow);
    hd.shadow.mode = ShadowMode::HdOnly;
    RunMetrics m = runWorkload(hd, "namd", kMisses, 1);
    EXPECT_GT(m.shadowStashHits, 0u);
}

TEST(System, OutOfOrderRaisesMemoryPressure)
{
    SystemConfig in = smallSystem(Scheme::Tiny);
    SystemConfig o3 = smallSystem(Scheme::Tiny);
    o3.cpu = CpuKind::OutOfOrder;
    o3.cores = 4;
    RunMetrics mi = runWorkload(in, "astar", kMisses, 1);
    RunMetrics mo = runWorkload(o3, "astar", kMisses, 1);
    // Four cores issue 4x the requests in less than 4x the time.
    EXPECT_EQ(mo.requests, 4 * mi.requests);
    EXPECT_LT(static_cast<double>(mo.execTime),
              4.0 * static_cast<double>(mi.execTime));
}

TEST(System, EnergyPositiveAndOrdered)
{
    RunMetrics ins = runWorkload(smallSystem(Scheme::Insecure),
                                 "bzip2", kMisses, 1);
    RunMetrics tiny = runWorkload(smallSystem(Scheme::Tiny), "bzip2",
                                  kMisses, 1);
    EXPECT_GT(ins.energy, 0.0);
    // ORAM touches two orders of magnitude more DRAM.
    EXPECT_GT(tiny.energy, ins.energy * 2.0);
}

TEST(System, OnChipHitRateWithinBounds)
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.treetopLevels = 3;
    RunMetrics m = runWorkload(cfg, "namd", kMisses, 1);
    EXPECT_GE(m.onChipHitRate, 0.0);
    EXPECT_LE(m.onChipHitRate, 1.0);
    EXPECT_GT(m.onChipHitRate, 0.01);
}

TEST(System, DeterministicAcrossRuns)
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    test::expectSameMetrics(runWorkload(cfg, "hmmer", kMisses, 5),
                            runWorkload(cfg, "hmmer", kMisses, 5));
}

TEST(System, NoStashOverflowAcrossSchemes)
{
    for (Scheme s : {Scheme::Tiny, Scheme::Shadow}) {
        RunMetrics m = runWorkload(smallSystem(s), "mcf", kMisses, 2);
        EXPECT_EQ(m.stashOverflows, 0u);
    }
}
