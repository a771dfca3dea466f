#include <gtest/gtest.h>

#include <set>

#include "mem/AddressMap.hh"

using namespace sboram;

namespace {

DramGeometry
defaultGeo()
{
    return DramGeometry{};
}

/**
 * The sub-tree layout in closed form, one slot at a time: the level
 * by a loop, the sub-tree sequence base by a loop over the groups
 * above, and the channel/rank/bank split by division.  The oracle the
 * per-level table must reproduce.
 */
DramCoord
closedFormSlot(const DramGeometry &geo, unsigned levels, unsigned z,
               unsigned subtreeLevels, BucketIndex bucket, unsigned slot)
{
    unsigned level = 0;
    while (bucket >= (BucketIndex(2) << level) - 1)
        ++level;
    const BucketIndex withinLevel =
        bucket - ((BucketIndex(1) << level) - 1);
    const unsigned group = level / subtreeLevels;
    const unsigned depthInSub = level - group * subtreeLevels;
    const BucketIndex rootWithinLevel = withinLevel >> depthInSub;
    std::uint64_t seq = 0;
    for (unsigned g = 0; g < group; ++g) {
        const unsigned gl = g * subtreeLevels;
        if (gl < levels)
            seq += BucketIndex(1) << gl;
    }
    seq += rootWithinLevel;
    const BucketIndex localWithin =
        withinLevel - (rootWithinLevel << depthInSub);
    const std::uint64_t localIndex =
        ((std::uint64_t(1) << depthInSub) - 1) + localWithin;

    DramCoord c;
    c.channel = static_cast<unsigned>(seq % geo.channels);
    std::uint64_t rest = seq / geo.channels;
    c.rank = static_cast<unsigned>(rest % geo.ranksPerChannel);
    rest /= geo.ranksPerChannel;
    c.bank = static_cast<unsigned>(rest % geo.banksPerRank);
    c.row = rest / geo.banksPerRank;
    c.column = localIndex * z + slot;
    return c;
}

bool
sameCoord(const DramCoord &a, const DramCoord &b)
{
    return a.channel == b.channel && a.rank == b.rank &&
           a.bank == b.bank && a.row == b.row && a.column == b.column;
}

} // namespace

TEST(AddressMap, EverySlotMatchesTheClosedForm)
{
    struct Case
    {
        const char *name;
        DramGeometry geo;
        unsigned z;
        unsigned subtreeLevels;
    };
    DramGeometry oneChannel;
    oneChannel.channels = 1;
    DramGeometry threeChannels;
    threeChannels.channels = 3;
    DramGeometry oneLevelRows;  // A row holds one 4-slot bucket.
    oneLevelRows.rowBytes = 256;
    DramGeometry oddBanks;      // 3ch x 1rk x 5bk: no power of two.
    oddBanks.channels = 3;
    oddBanks.ranksPerChannel = 1;
    oddBanks.banksPerRank = 5;
    oddBanks.rowBytes = 2048;
    const Case cases[] = {
        {"default 2ch/2rk/8bk", DramGeometry{}, 5, 4},
        {"one channel", oneChannel, 5, 4},
        {"three channels", threeChannels, 4, 5},
        {"one-level sub-trees", oneLevelRows, 4, 1},
        {"3ch/1rk/5bk, 2 KB rows", oddBanks, 3, 3},
    };
    for (const Case &k : cases) {
        for (unsigned levels = 1; levels <= 14; ++levels) {
            const AddressMap map(k.geo, levels, k.z);
            ASSERT_EQ(map.subtreeLevels(), k.subtreeLevels) << k.name;
            const BucketIndex buckets = (BucketIndex(1) << levels) - 1;
            for (BucketIndex b = 0; b < buckets; ++b) {
                DramCoord bucket = map.mapBucket(b);
                for (unsigned s = 0; s < k.z; ++s) {
                    ASSERT_TRUE(sameCoord(
                        map.mapSlot(b, s),
                        closedFormSlot(k.geo, levels, k.z,
                                       k.subtreeLevels, b, s)))
                        << k.name << ": " << levels << " levels, bucket "
                        << b << " slot " << s;
                    // The bucket coordinate is slot 0's; slot s is
                    // column + s of the same row.
                    ASSERT_TRUE(sameCoord(bucket, map.mapSlot(b, s)))
                        << k.name << ": bucket " << b << " slot " << s;
                    ++bucket.column;
                }
            }
        }
    }
}

TEST(AddressMap, LevelOfHeapIndex)
{
    EXPECT_EQ(AddressMap::levelOf(0), 0u);
    EXPECT_EQ(AddressMap::levelOf(1), 1u);
    EXPECT_EQ(AddressMap::levelOf(2), 1u);
    EXPECT_EQ(AddressMap::levelOf(3), 2u);
    EXPECT_EQ(AddressMap::levelOf(6), 2u);
    EXPECT_EQ(AddressMap::levelOf(7), 3u);
    EXPECT_EQ(AddressMap::levelOf((BucketIndex(1) << 40) - 2), 39u);
    EXPECT_EQ(AddressMap::levelOf((BucketIndex(1) << 40) - 1), 40u);
}

TEST(AddressMap, SubtreeLevelsFitARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    // A bucket is 5*64 = 320 B; an 8 KB row holds a 4-level subtree
    // (15 buckets, 4800 B) but not a 5-level one (31 buckets).
    EXPECT_EQ(map.subtreeLevels(), 4u);
}

TEST(AddressMap, SlotsOfOneBucketShareARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    DramCoord first = map.mapSlot(100, 0);
    for (unsigned s = 1; s < 5; ++s) {
        DramCoord c = map.mapSlot(100, s);
        EXPECT_EQ(c.channel, first.channel);
        EXPECT_EQ(c.bank, first.bank);
        EXPECT_EQ(c.row, first.row);
        EXPECT_EQ(c.column, first.column + s);
    }
}

TEST(AddressMap, SubtreeBucketsShareARow)
{
    AddressMap map(defaultGeo(), 19, 5);
    // Buckets 0..14 form the first 4-level subtree.
    DramCoord root = map.mapSlot(0, 0);
    for (BucketIndex b = 1; b < 15; ++b) {
        DramCoord c = map.mapSlot(b, 0);
        EXPECT_EQ(c.channel, root.channel) << "bucket " << b;
        EXPECT_EQ(c.row, root.row) << "bucket " << b;
    }
    // Bucket 15 starts the next group and must land elsewhere.
    DramCoord next = map.mapSlot(15, 0);
    EXPECT_TRUE(next.channel != root.channel || next.rank != root.rank ||
                next.bank != root.bank || next.row != root.row);
}

TEST(AddressMap, NoTwoSlotsCollide)
{
    AddressMap map(defaultGeo(), 9, 4);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    const BucketIndex buckets = (BucketIndex(1) << 9) - 1;
    for (BucketIndex b = 0; b < buckets; ++b) {
        for (unsigned s = 0; s < 4; ++s) {
            DramCoord c = map.mapSlot(b, s);
            auto key = std::make_tuple(c.channel, c.rank, c.bank,
                                       c.row, c.column);
            EXPECT_TRUE(seen.insert(key).second)
                << "collision at bucket " << b << " slot " << s;
        }
    }
}

TEST(AddressMap, PathTouchesMultipleChannels)
{
    AddressMap map(defaultGeo(), 19, 5);
    // Walk a path root→leaf and count distinct (channel) values; the
    // subtree striping should engage both channels.
    std::set<unsigned> channels;
    LeafLabel leaf = 0x2a5a5;
    const unsigned leafLevel = 18;
    for (unsigned level = 0; level <= leafLevel; ++level) {
        BucketIndex b = ((BucketIndex(1) << level) - 1) +
                        (leaf >> (leafLevel - level));
        channels.insert(map.mapSlot(b, 0).channel);
    }
    EXPECT_EQ(channels.size(), 2u);
}

TEST(AddressMap, FlatMappingInterleavesChannels)
{
    AddressMap map(defaultGeo(), 2, 1);
    EXPECT_NE(map.mapFlat(0).channel, map.mapFlat(1).channel);
}

TEST(AddressMap, FlatMappingDistinct)
{
    AddressMap map(defaultGeo(), 2, 1);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>>
        seen;
    for (Addr a = 0; a < 4096; ++a) {
        DramCoord c = map.mapFlat(a);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second) << "addr " << a;
    }
}
