#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "common/Stats.hh"
#include "sim/System.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

SystemConfig
benchSystem(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 15;
    cfg.oram.seed = 9;
    return cfg;
}

} // namespace

TEST(EndToEnd, HeadlineShapeWithoutTimingProtection)
{
    // Fig. 11's qualitative shape: insecure < shadow(dynamic) <=
    // tiny, across a memory-intensive and a compute-bound workload.
    for (const char *wl : {"mcf", "sjeng"}) {
        RunMetrics ins =
            runWorkload(benchSystem(Scheme::Insecure), wl, 3000, 7);
        RunMetrics tiny =
            runWorkload(benchSystem(Scheme::Tiny), wl, 3000, 7);
        SystemConfig sh = benchSystem(Scheme::Shadow);
        RunMetrics shadow = runWorkload(sh, wl, 3000, 7);

        EXPECT_LT(ins.execTime, tiny.execTime) << wl;
        EXPECT_LE(static_cast<double>(shadow.execTime),
                  static_cast<double>(tiny.execTime) * 1.02)
            << wl;
    }
}

TEST(EndToEnd, TimingProtectionShape)
{
    // Fig. 15's shape: with TP the shadow design's win grows
    // (dummy requests get avoided).
    SystemConfig tiny = benchSystem(Scheme::Tiny);
    tiny.timingProtection = true;
    SystemConfig shadow = benchSystem(Scheme::Shadow);
    shadow.timingProtection = true;

    RunMetrics mt = runWorkload(tiny, "h264ref", 3000, 7);
    RunMetrics ms = runWorkload(shadow, "h264ref", 3000, 7);
    EXPECT_LT(ms.execTime, mt.execTime);
    // Shadow suppresses some dummy requests by shortening DRIs.
    EXPECT_LE(ms.dummyRequests, mt.dummyRequests);
}

TEST(EndToEnd, RdDupMainlyCutsDriHdDupMainlyCutsDataTime)
{
    // Fig. 8's decomposition, as a directional check.
    SystemConfig tiny = benchSystem(Scheme::Tiny);
    SystemConfig rd = benchSystem(Scheme::Shadow);
    rd.shadow.mode = ShadowMode::RdOnly;
    SystemConfig hd = benchSystem(Scheme::Shadow);
    hd.shadow.mode = ShadowMode::HdOnly;

    RunMetrics mt = runWorkload(tiny, "hmmer", 4000, 7);
    RunMetrics mr = runWorkload(rd, "hmmer", 4000, 7);
    RunMetrics mh = runWorkload(hd, "hmmer", 4000, 7);

    // RD-Dup reduces DRI.
    EXPECT_LT(mr.driTime, mt.driTime);
    // HD-Dup avoids data requests entirely via shadow stash hits.
    EXPECT_GT(mh.shadowStashHits, mr.shadowStashHits);
    EXPECT_LT(mh.dataAccessTime, mt.dataAccessTime * 1.02);
}

TEST(EndToEnd, TreetopHitRateRisesWithShadowBlocks)
{
    // Fig. 16's shape.
    SystemConfig tiny = benchSystem(Scheme::Tiny);
    tiny.oram.treetopLevels = 3;
    tiny.timingProtection = true;
    SystemConfig shadow = benchSystem(Scheme::Shadow);
    shadow.oram.treetopLevels = 3;
    shadow.timingProtection = true;

    RunMetrics mt = runWorkload(tiny, "namd", 3000, 7);
    RunMetrics ms = runWorkload(shadow, "namd", 3000, 7);
    EXPECT_GT(ms.onChipHitRate, mt.onChipHitRate);
}

TEST(EndToEnd, PayloadIntegrityUnderFullSystem)
{
    // Functional end-to-end: run a payload-enabled shadow ORAM
    // through thousands of random reads/writes and verify every
    // address still returns the last written value.
    OramConfig cfg = smallConfig();
    OramStack fx(Scheme::Shadow, cfg);
    Rng rng(67);
    std::vector<std::uint32_t> writeCount(1 << 10, 0);

    Cycles t = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr a = rng.below(1 << 10);
        if (rng.chance(0.4)) {
            ++writeCount[a];
            std::vector<std::uint64_t> data(8);
            for (int w = 0; w < 8; ++w)
                data[w] = (a << 32) ^ (writeCount[a] * 8 + w);
            t = fx.oram().access(a, Op::Write, t + 100, &data)
                    .completeAt;
        } else {
            t = fx.oram().access(a, Op::Read, t + 100).completeAt;
        }
    }
    Rng check(68);
    for (int i = 0; i < 200; ++i) {
        Addr a = check.below(1 << 10);
        if (writeCount[a] == 0)
            continue;
        auto payload = fx.oram().peekPayload(a);
        ASSERT_EQ(payload.size(), 8u);
        for (int w = 0; w < 8; ++w) {
            ASSERT_EQ(payload[w],
                      (static_cast<std::uint64_t>(a) << 32) ^
                          (writeCount[a] * 8 + w))
                << "addr " << a << " word " << w;
        }
    }
}
