#include <gtest/gtest.h>

#include <vector>

#include "common/Rng.hh"
#include "shadow/HotAddressCache.hh"

using namespace sboram;

TEST(HotAddressCache, CountsTouches)
{
    HotAddressCache hac(128, 4);
    EXPECT_EQ(hac.count(5), 0u);
    hac.touch(5);
    hac.touch(5);
    hac.touch(5);
    EXPECT_EQ(hac.count(5), 3u);
}

TEST(HotAddressCache, UnknownAddressIsZero)
{
    HotAddressCache hac(128, 4);
    hac.touch(1);
    EXPECT_EQ(hac.count(2), 0u);
}

TEST(HotAddressCache, LfuKeepsHotVictimizesCold)
{
    // 1 set of 2 ways: addresses collide by construction.
    HotAddressCache hac(2, 2);
    for (int i = 0; i < 10; ++i)
        hac.touch(100);
    hac.touch(200);   // Second way.
    hac.touch(300);   // Evicts the LFU entry (200, count 1).
    EXPECT_EQ(hac.count(100), 10u);
    EXPECT_EQ(hac.count(200), 0u);
    EXPECT_EQ(hac.count(300), 1u);
}

TEST(HotAddressCache, TouchReportsTheEvictedTag)
{
    HotAddressCache hac(2, 2);
    EXPECT_EQ(hac.touch(100), kInvalidAddr);  // Free way.
    EXPECT_EQ(hac.touch(200), kInvalidAddr);  // Free way.
    EXPECT_EQ(hac.touch(100), kInvalidAddr);  // Hit.
    EXPECT_EQ(hac.touch(300), 200u);          // LFU victim.
    EXPECT_EQ(hac.count(200), 0u);
}

TEST(HotAddressCache, OnlyTheTouchedAndEvictedCountsMove)
{
    // The stash re-keys just these two addresses after an LLC miss,
    // so no other address's count may change across a touch.
    HotAddressCache hac(16, 4);
    Rng rng(41);
    const Addr universe = 96;
    std::vector<std::uint32_t> before(universe);
    for (int step = 0; step < 5000; ++step) {
        for (Addr a = 0; a < universe; ++a)
            before[a] = hac.count(a);
        const Addr addr = rng.below(universe);
        const Addr evicted = hac.touch(addr);
        EXPECT_NE(evicted, addr);
        if (evicted != kInvalidAddr) {
            EXPECT_GT(before[evicted], 0u);
            EXPECT_EQ(hac.count(evicted), 0u);
        }
        EXPECT_EQ(hac.count(addr), before[addr] + 1);
        for (Addr a = 0; a < universe; ++a) {
            if (a != addr && a != evicted)
                ASSERT_EQ(hac.count(a), before[a]) << "step " << step;
        }
    }
}

TEST(HotAddressCache, HitMissCounters)
{
    HotAddressCache hac(128, 4);
    hac.touch(1);  // miss
    hac.touch(1);  // hit
    hac.touch(2);  // miss
    EXPECT_EQ(hac.hits(), 1u);
    EXPECT_EQ(hac.misses(), 2u);
}

TEST(HotAddressCache, PaperSizedInstance)
{
    // 1 KB at ~8 B per entry = 128 entries (paper Section V-C).
    HotAddressCache hac(128, 4);
    for (Addr a = 0; a < 1000; ++a)
        hac.touch(a);
    // Still functional after heavy churn.
    hac.touch(42);
    EXPECT_GE(hac.count(42), 1u);
}
