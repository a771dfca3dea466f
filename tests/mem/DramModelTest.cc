#include <gtest/gtest.h>

#include "ckpt/Serde.hh"
#include "common/Rng.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"

using namespace sboram;

namespace {

std::vector<DramCoord>
pathCoords(const AddressMap &map, unsigned leafLevel, unsigned z,
           LeafLabel leaf)
{
    std::vector<DramCoord> coords;
    for (unsigned level = 0; level <= leafLevel; ++level) {
        BucketIndex b = ((BucketIndex(1) << level) - 1) +
                        (leaf >> (leafLevel - level));
        for (unsigned s = 0; s < z; ++s)
            coords.push_back(map.mapSlot(b, s));
    }
    return coords;
}

} // namespace

TEST(DramModel, SingleReadLatencyIsPlausible)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    AddressMap map(g, 2, 1);
    Cycles done = dram.accessSingle(0, map.mapFlat(0), false);
    // Activate + RCD + CL + burst ≈ 9+9+4 memclk = 66 cycles.
    EXPECT_GE(done, t.tRCD + t.tCL + t.tBURST);
    EXPECT_LE(done, 200u);
}

TEST(DramModel, RowHitFasterThanRowMiss)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dramHit(t, g);
    AddressMap map(g, 2, 1);

    // Two reads to the same row: second should be quick.
    DramCoord c0 = map.mapFlat(0);
    DramCoord sameRow = c0;
    sameRow.column += 1;
    Cycles first = dramHit.accessSingle(0, c0, false);
    Cycles second = dramHit.accessSingle(first, sameRow, false);

    DramModel dramMiss(t, g);
    DramCoord otherRow = c0;
    otherRow.row += 1;
    Cycles firstM = dramMiss.accessSingle(0, c0, false);
    Cycles secondM = dramMiss.accessSingle(firstM, otherRow, false);

    EXPECT_LT(second - first, secondM - firstM);
    EXPECT_EQ(dramHit.stats().rowHits, 1u);
    EXPECT_EQ(dramMiss.stats().rowMisses, 2u);
}

TEST(DramModel, PathReadLatencyNearBandwidthBound)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    const unsigned leafLevel = 18, z = 5;
    AddressMap map(g, leafLevel + 1, z);
    auto coords = pathCoords(map, leafLevel, z, 12345);
    BatchTiming bt = dram.accessBatch(0, coords, false);

    // 95 blocks * 12 cycles burst / 2 channels = 570 cycles of pure
    // data transfer; the total should be within ~2x of that bound.
    const Cycles busBound =
        coords.size() * t.tBURST / g.channels;
    EXPECT_GE(bt.finish, busBound);
    EXPECT_LE(bt.finish, busBound * 2);
}

TEST(DramModel, CompletionsRoughlyMonotonicAlongPath)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    const unsigned leafLevel = 18, z = 5;
    AddressMap map(g, leafLevel + 1, z);
    auto coords = pathCoords(map, leafLevel, z, 99999);
    BatchTiming bt = dram.accessBatch(0, coords, false);

    // Root-side blocks must on the whole complete earlier than
    // leaf-side blocks — this is what early forwarding relies on.
    const std::size_t n = bt.completion.size();
    double firstQuarter = 0, lastQuarter = 0;
    for (std::size_t i = 0; i < n / 4; ++i)
        firstQuarter += static_cast<double>(bt.completion[i]);
    for (std::size_t i = n - n / 4; i < n; ++i)
        lastQuarter += static_cast<double>(bt.completion[i]);
    EXPECT_LT(firstQuarter / (n / 4), lastQuarter / (n / 4));
}

TEST(DramModel, XorCompressionShortensBusBoundBatch)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    const unsigned leafLevel = 18, z = 5;
    AddressMap map(g, leafLevel + 1, z);
    auto coords = pathCoords(map, leafLevel, z, 4242);

    DramModel plain(t, g);
    DramModel xored(t, g);
    Cycles plainT = plain.accessBatch(0, coords, false).finish;
    Cycles xorT =
        xored.accessBatch(0, coords, false, true, z).finish;
    // XOR relieves the data bus but column commands still pace at
    // tCCD per rank — limited gain (paper Section IV-E).
    EXPECT_LE(xorT, plainT);
    EXPECT_GE(static_cast<double>(xorT),
              0.3 * static_cast<double>(plainT));
}

TEST(DramModel, WriteBatchCompletes)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    const unsigned leafLevel = 10, z = 5;
    AddressMap map(g, leafLevel + 1, z);
    auto coords = pathCoords(map, leafLevel, z, 77);
    BatchTiming bt = dram.accessBatch(100, coords, true);
    EXPECT_GT(bt.finish, 100u);
    EXPECT_EQ(dram.stats().writes, coords.size());
}

TEST(DramModel, EarliestStartRespected)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    AddressMap map(g, 2, 1);
    Cycles done = dram.accessSingle(10000, map.mapFlat(5), false);
    EXPECT_GE(done, 10000u);
}

TEST(DramModel, StatsAccumulateAndReset)
{
    DramTiming t = DramTiming::ddr3_1333();
    DramGeometry g;
    DramModel dram(t, g);
    AddressMap map(g, 2, 1);
    dram.accessSingle(0, map.mapFlat(0), false);
    dram.accessSingle(0, map.mapFlat(1), true);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 1u);
    dram.resetStats();
    EXPECT_EQ(dram.stats().reads, 0u);
}

namespace {

std::vector<std::uint8_t>
stateBytes(const DramModel &dram)
{
    ckpt::Serializer out;
    dram.saveState(out);
    return out.buffer();
}

/**
 * Drive @p paths random path accesses through two fresh models — one
 * per-slot (mapSlot + accessBatch), one per-bucket (mapBucket +
 * accessPath) — in TinyOram's orders (reads root to leaf, writes leaf
 * to root, treetop levels skipped) and require the same schedule.
 */
void
expectBucketScheduleMatchesSlots(const DramGeometry &g, unsigned leafLevel,
                                 unsigned z, unsigned treetop,
                                 std::uint64_t seed)
{
    const DramTiming t = DramTiming::ddr3_1333();
    const AddressMap map(g, leafLevel + 1, z);
    DramModel perSlot(t, g), perBucket(t, g);
    Rng rng(seed);
    std::vector<DramCoord> slots, buckets;
    Cycles at = 0;
    for (int i = 0; i < 300; ++i) {
        const LeafLabel leaf = rng.below(LeafLabel(1) << leafLevel);
        const bool isWrite = rng.below(3) == 0;
        const bool xorBus = !isWrite && rng.below(2) == 0;
        slots.clear();
        buckets.clear();
        for (unsigned k = treetop; k <= leafLevel; ++k) {
            const unsigned level = isWrite ? leafLevel + treetop - k : k;
            const BucketIndex b = ((BucketIndex(1) << level) - 1) +
                                  (leaf >> (leafLevel - level));
            buckets.push_back(map.mapBucket(b));
            for (unsigned s = 0; s < z; ++s)
                slots.push_back(map.mapSlot(b, s));
        }
        const BatchTiming want =
            perSlot.accessBatch(at, slots, isWrite, xorBus, z);
        const BatchTiming &got =
            perBucket.accessPath(at, buckets, z, isWrite, xorBus);
        ASSERT_EQ(got.completion, want.completion) << "path " << i;
        ASSERT_EQ(got.finish, want.finish) << "path " << i;
        // Back to back, overlapping the previous path, or after a gap.
        const std::uint64_t pick = rng.below(3);
        at = pick == 0 ? want.finish
           : pick == 1 ? at + rng.below(want.finish - at + 1)
                       : want.finish + rng.below(2000);
    }
    const DramStats &a = perSlot.stats(), &b = perBucket.stats();
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_GT(a.rowHits, 0u);
    EXPECT_GT(a.rowMisses, 0u);
    EXPECT_EQ(stateBytes(perSlot), stateBytes(perBucket));
}

} // namespace

TEST(DramModel, BucketScheduleMatchesPerSlotSchedule)
{
    expectBucketScheduleMatchesSlots(DramGeometry{}, 18, 5, 0, 1);
    expectBucketScheduleMatchesSlots(DramGeometry{}, 12, 4, 3, 2);
    DramGeometry three;
    three.channels = 3;
    three.banksPerRank = 5;
    expectBucketScheduleMatchesSlots(three, 14, 3, 0, 3);
}
