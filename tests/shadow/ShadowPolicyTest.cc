#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "shadow/ShadowPolicy.hh"

using namespace sboram;

namespace {

PlacedBlock
placed(Addr addr, unsigned level, LeafLabel leaf = 3)
{
    PlacedBlock p;
    p.addr = addr;
    p.leaf = leaf;
    p.version = 1;
    p.level = level;
    return p;
}

ShadowConfig
rdOnly()
{
    ShadowConfig c;
    c.mode = ShadowMode::RdOnly;
    return c;
}

ShadowConfig
hdOnly()
{
    ShadowConfig c;
    c.mode = ShadowMode::HdOnly;
    return c;
}

} // namespace

TEST(ShadowPolicy, RdOnlyDuplicatesDeepestFirst)
{
    ShadowPolicy policy(rdOnly(), 18);
    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(1, 18));
    policy.onBlockPlaced(placed(2, 10));
    auto choice = policy.selectShadow(5);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->addr, 1u);  // Rear data (deepest) first.
    EXPECT_EQ(policy.stats().rdDuplications, 1u);
    EXPECT_EQ(policy.stats().hdDuplications, 0u);
    policy.endPathWrite();
}

TEST(ShadowPolicy, HdOnlyDuplicatesHottestFirst)
{
    ShadowPolicy policy(hdOnly(), 18);
    for (int i = 0; i < 9; ++i)
        policy.onLlcMiss(77);
    policy.onLlcMiss(88);

    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(88, 18));
    policy.onBlockPlaced(placed(77, 10));
    auto choice = policy.selectShadow(2);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->addr, 77u);  // Hotter despite shallower.
    EXPECT_EQ(policy.stats().hdDuplications, 1u);
}

TEST(ShadowPolicy, HotnessMovedReportsTheLatestMiss)
{
    // Two-way single set: the third distinct address evicts.
    ShadowConfig cfg = hdOnly();
    cfg.hotCacheEntries = 2;
    cfg.hotCacheAssoc = 2;
    ShadowPolicy policy(cfg, 18);
    EXPECT_FALSE(policy.hotnessMoved().has_value());  // No miss yet.

    policy.onLlcMiss(5);
    policy.onLlcMiss(5);
    policy.onLlcMiss(6);
    using Moved = std::array<Addr, 2>;
    EXPECT_EQ(policy.hotnessMoved(), (Moved{6, kInvalidAddr}));
    policy.onLlcMiss(7);  // Evicts 6, the least frequent.
    EXPECT_EQ(policy.hotnessMoved(), (Moved{7, 6}));

    // A restore may move any value: the answer is "unknown" again.
    ckpt::Serializer out;
    policy.saveState(out);
    const std::vector<std::uint8_t> bytes = out.take();
    ckpt::Deserializer in(bytes.data(), bytes.size());
    policy.loadState(in);
    EXPECT_FALSE(policy.hotnessMoved().has_value());
}

TEST(ShadowPolicy, NoCandidateForTooShallowSlot)
{
    ShadowPolicy policy(rdOnly(), 18);
    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(1, 4));
    EXPECT_FALSE(policy.selectShadow(4).has_value());
    EXPECT_FALSE(policy.selectShadow(7).has_value());
    EXPECT_TRUE(policy.selectShadow(3).has_value());
}

TEST(ShadowPolicy, QueuesClearedBetweenPathWrites)
{
    ShadowPolicy policy(rdOnly(), 18);
    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(1, 18));
    policy.endPathWrite();
    policy.beginPathWrite(1);
    EXPECT_FALSE(policy.selectShadow(0).has_value());
}

TEST(ShadowPolicy, StaticPartitionRoutesByLevel)
{
    ShadowConfig cfg;
    cfg.mode = ShadowMode::StaticPartition;
    cfg.staticLevel = 7;
    ShadowPolicy policy(cfg, 18);
    EXPECT_EQ(policy.partitionLevel(), 7u);

    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(1, 18));
    policy.onBlockPlaced(placed(2, 17));
    // Level 10 ≥ partition 7 → RD side; level 3 < 7 → HD side.
    EXPECT_TRUE(policy.selectShadow(10).has_value());
    EXPECT_TRUE(policy.selectShadow(3).has_value());
    EXPECT_EQ(policy.stats().rdDuplications, 1u);
    EXPECT_EQ(policy.stats().hdDuplications, 1u);
}

TEST(ShadowPolicy, CandidateCanBeDuplicatedByBothSchemes)
{
    ShadowConfig cfg;
    cfg.mode = ShadowMode::StaticPartition;
    cfg.staticLevel = 7;
    ShadowPolicy policy(cfg, 18);
    policy.beginPathWrite(0);
    policy.onBlockPlaced(placed(9, 18));
    auto rd = policy.selectShadow(10);
    auto hd = policy.selectShadow(3);
    ASSERT_TRUE(rd && hd);
    EXPECT_EQ(rd->addr, 9u);
    EXPECT_EQ(hd->addr, 9u);
}

TEST(ShadowPolicy, DynamicPartitionMoves)
{
    ShadowConfig cfg;
    cfg.mode = ShadowMode::DynamicPartition;
    cfg.driCounterBits = 3;
    ShadowPolicy policy(cfg, 18);
    const unsigned initial = policy.partitionLevel();
    for (int i = 0; i < 30; ++i)
        policy.onRequestClassified(false);
    EXPECT_GT(policy.partitionLevel(), initial);
    EXPECT_GT(policy.stats().partitionAdjustments, 0u);
}

TEST(ShadowPolicy, ShadowChoiceCarriesLabelAndVersion)
{
    ShadowPolicy policy(rdOnly(), 18);
    policy.beginPathWrite(0);
    PlacedBlock p = placed(5, 12, /*leaf=*/42);
    p.version = 9;
    policy.onBlockPlaced(p);
    auto choice = policy.selectShadow(3);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->leaf, 42u);
    EXPECT_EQ(choice->version, 9u);
}
