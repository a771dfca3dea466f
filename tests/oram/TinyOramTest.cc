#include <gtest/gtest.h>

#include <algorithm>

#include "OramTestUtil.hh"
#include "common/Rng.hh"
#include "workload/SpecProfiles.hh"
#include "workload/Workload.hh"

using namespace sboram;
using namespace sboram::test;

TEST(TinyOram, GeometrySmallConfig)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    // 1024 blocks at Z=5, 50 % utilisation → 8 levels.
    EXPECT_EQ(fx.oram().geometry().leafLevel, 8u);
    EXPECT_EQ(fx.oram().tree().numLeaves(), 256u);
}

TEST(TinyOram, InitialStateIsConsistent)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    const std::uint64_t inTree = fx.oram().tree().countReal();
    const std::uint64_t inStash = fx.oram().stash().realCount();
    EXPECT_EQ(inTree + inStash, fx.oram().geometry().totalBlocks);
}

TEST(TinyOram, ReadReturnsInitialPattern)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    AccessResult r = fx.oram().access(5, Op::Read, 0);
    EXPECT_GT(r.forwardAt, 0u);
    // After the access the block sits in the stash.
    EXPECT_TRUE(fx.oram().wouldHitStash(5, Op::Read));
}

TEST(TinyOram, WriteThenReadBack)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    std::vector<std::uint64_t> data{11, 22, 33, 44, 55, 66, 77, 88};
    fx.oram().access(9, Op::Write, 0, &data);
    EXPECT_EQ(fx.oram().peekPayload(9), data);
}

TEST(TinyOram, WriteSurvivesManyEvictions)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    std::vector<std::uint64_t> data{1, 2, 3, 4, 5, 6, 7, 8};
    fx.oram().access(100, Op::Write, 0, &data);
    // Push through enough other accesses that block 100 is evicted
    // back into the tree at least once.
    Rng rng(3);
    Cycles t = 0;
    for (int i = 0; i < 400; ++i) {
        Addr a = rng.below(1 << 10);
        if (a == 100)
            continue;
        t = fx.oram().access(a, Op::Read, t + 100).completeAt;
    }
    EXPECT_EQ(fx.oram().peekPayload(100), data);
}

TEST(TinyOram, SecondAccessIsStashHit)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    fx.oram().access(7, Op::Read, 0);
    AccessResult r = fx.oram().access(7, Op::Read, 1000);
    EXPECT_TRUE(r.stashHit);
    EXPECT_TRUE(r.onChipHit);
    EXPECT_EQ(r.forwardAt, 1000 + smallConfig().stashHitLatency);
}

TEST(TinyOram, AccessRemapsLeaf)
{
    OramConfig cfg = smallConfig();
    OramStack fx(Scheme::Tiny, cfg);
    // Remapping is uniform: over many accesses of the same block the
    // label must change most of the time.
    int changed = 0;
    Cycles t = 0;
    for (int i = 0; i < 50; ++i) {
        LeafLabel before = fx.oram().posMap().lookup(3);
        // Evict it from the stash by touching other blocks first.
        for (Addr a = 200; a < 230; ++a)
            t = fx.oram().access(a, Op::Read, t + 10).completeAt;
        if (!fx.oram().wouldHitStash(3, Op::Read)) {
            fx.oram().access(3, Op::Read, t);
            if (fx.oram().posMap().lookup(3) != before)
                ++changed;
        }
    }
    EXPECT_GT(changed, 40);
}

TEST(TinyOram, EvictionEveryAthAccess)
{
    OramConfig cfg = smallConfig();
    cfg.evictionRate = 5;
    OramStack fx(Scheme::Tiny, cfg);
    Cycles t = 0;
    std::uint64_t served = 0;
    for (Addr a = 0; a < 25 || served < 25; ++a) {
        AccessResult r = fx.oram().access(a % 1024, Op::Read, t + 10);
        t = r.completeAt;
        if (!r.stashHit)
            ++served;
    }
    // Exactly one eviction (path read + path write) per A = 5
    // request-serving path reads.
    EXPECT_EQ(fx.oram().stats().evictions, served / 5);
    EXPECT_EQ(fx.oram().stats().pathWrites, served / 5);
    EXPECT_EQ(fx.oram().stats().pathReads, served + served / 5);
}

TEST(TinyOram, DummyAccessLeavesStateUntouched)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    fx.oram().access(1, Op::Read, 0);
    const std::uint64_t treeReal = fx.oram().tree().countReal();
    const std::uint64_t stashReal = fx.oram().stash().realCount();
    const std::uint64_t evictions = fx.oram().stats().evictions;
    // Four dummies do not move any block (though the 5th overall
    // access triggers an eviction, so stop before that).
    fx.oram().dummyAccess(10000);
    fx.oram().dummyAccess(20000);
    fx.oram().dummyAccess(30000);
    EXPECT_EQ(fx.oram().tree().countReal(), treeReal);
    EXPECT_EQ(fx.oram().stash().realCount(), stashReal);
    EXPECT_EQ(fx.oram().stats().evictions, evictions);
    EXPECT_EQ(fx.oram().stats().dummyAccesses, 3u);
}

TEST(TinyOram, ForwardBeforeCompleteOnPathAccess)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    // Use a block that is deep in the tree so forwarding must happen
    // strictly before the full path read completes most of the time.
    Cycles t = 0;
    int earlier = 0, total = 0;
    for (Addr a = 0; a < 60; ++a) {
        AccessResult r = fx.oram().access(a, Op::Read, t + 50);
        t = r.completeAt;
        if (r.stashHit)
            continue;
        ++total;
        if (r.forwardAt < r.completeAt)
            ++earlier;
    }
    EXPECT_GT(earlier, total / 2);
}

TEST(TinyOram, ControllerBusySerializesRequests)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    AccessResult a = fx.oram().access(1, Op::Read, 0);
    ASSERT_FALSE(fx.oram().wouldHitStash(2, Op::Read));
    // Issue the next request while the controller is still busy.
    AccessResult b = fx.oram().access(2, Op::Read, a.completeAt / 2);
    EXPECT_GE(b.start, a.completeAt);
}

TEST(TinyOram, RecursivePosMapGeneratesExtraAccesses)
{
    OramStack fx(Scheme::Tiny, recursiveConfig());
    AccessResult r = fx.oram().access(0, Op::Read, 0);
    // Cold PLB: 2 position-map accesses + the data access.
    EXPECT_EQ(r.pathAccesses, 3u);
    EXPECT_EQ(fx.oram().stats().posMapAccesses, 2u);
    // A different address covered by the same pm blocks is cheaper.
    AccessResult r2 = fx.oram().access(1, Op::Read, r.completeAt);
    EXPECT_EQ(r2.pathAccesses, 1u);
}

TEST(TinyOram, XorCompressionForwardsAtEnd)
{
    OramConfig cfg = smallConfig();
    cfg.xorCompression = true;
    OramStack fx(Scheme::Tiny, cfg);
    Cycles t = 0;
    for (Addr a = 0; a < 30; ++a) {
        const std::uint64_t evictionsBefore =
            fx.oram().stats().evictions;
        AccessResult r = fx.oram().access(a, Op::Read, t + 50);
        t = r.completeAt;
        const bool evicted =
            fx.oram().stats().evictions != evictionsBefore;
        if (!r.stashHit) {
            EXPECT_FALSE(r.usedShadow);
            // The XOR result exists only after the whole path read,
            // so forwarding cannot beat the read's completion (the
            // controller may stay busy longer when this access also
            // triggered the A-th eviction).
            if (!evicted) {
                EXPECT_GE(r.forwardAt + cfg.aesLatency, r.completeAt);
            }
        }
    }
}

TEST(TinyOram, TreetopSkipsDramForTopLevels)
{
    OramConfig cfg = smallConfig();
    cfg.treetopLevels = 3;
    OramStack fx(Scheme::Tiny, cfg);
    Cycles t = 0;
    for (int i = 0; i < 100; ++i) {
        Addr a = static_cast<Addr>((i * 37) % 1024);
        t = fx.oram().access(a, Op::Read, t + 50).completeAt;
    }
    // Levels 0..2 live on chip: every path read touches only
    // (L+1-3) * Z = 30 blocks in DRAM (L = 8, Z = 5).
    const std::uint64_t perPath =
        (fx.oram().geometry().leafLevel + 1 - 3) * 5;
    EXPECT_EQ(fx.dram().stats().reads,
              fx.oram().stats().pathReads * perPath);
    EXPECT_EQ(fx.dram().stats().writes,
              fx.oram().stats().pathWrites * perPath);
}

TEST(TinyOram, TreetopYieldsOnChipHitsOnReuse)
{
    OramConfig cfg = smallConfig();
    cfg.treetopLevels = 3;
    OramStack fx(Scheme::Tiny, cfg);
    Cycles t = 0;
    std::uint64_t onChip = 0;
    // Revisit a small hot set with churn in between: after eviction
    // the hot blocks often land in the top levels (root-side common
    // prefixes), so reuse hits the stash or the treetop.
    for (int round = 0; round < 40; ++round) {
        for (int h = 0; h < 8; ++h) {
            AccessResult r = fx.oram().access(
                static_cast<Addr>(h), Op::Read, t + 50);
            t = r.completeAt;
            if (r.onChipHit)
                ++onChip;
        }
        for (int c = 0; c < 10; ++c) {
            Addr a = static_cast<Addr>(
                100 + (round * 10 + c) % 900);
            AccessResult r = fx.oram().access(a, Op::Read, t + 50);
            t = r.completeAt;
            if (r.onChipHit)
                ++onChip;
        }
    }
    EXPECT_GT(onChip, 0u);
    EXPECT_EQ(fx.oram().stats().onChipHits, onChip);
}

TEST(TinyOram, StashNeverOverflowsUnderRandomLoad)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    Rng rng(17);
    Cycles t = 0;
    for (int i = 0; i < 3000; ++i) {
        Addr a = rng.below(1 << 10);
        Op op = rng.chance(0.3) ? Op::Write : Op::Read;
        t = fx.oram().access(a, op, t + 100).completeAt;
    }
    EXPECT_EQ(fx.oram().stash().stats().overflowEvents, 0u);
    EXPECT_LT(fx.oram().stash().stats().peakReal,
              smallConfig().stashCapacity);
}

namespace {

/** Forwards every hook to a ShadowPolicy and counts hotnessOf. */
class HotnessCountingPolicy final : public DuplicationPolicy
{
  public:
    explicit HotnessCountingPolicy(std::unique_ptr<ShadowPolicy> inner)
        : _inner(std::move(inner))
    {
    }

    void beginPathWrite(LeafLabel leaf) override
    {
        _inner->beginPathWrite(leaf);
    }
    void onBlockPlaced(const PlacedBlock &placed) override
    {
        _inner->onBlockPlaced(placed);
    }
    void
    offerStashShadow(Addr addr, LeafLabel leaf, std::uint32_t version,
                     unsigned rearLevel, unsigned maxLevel) override
    {
        _inner->offerStashShadow(addr, leaf, version, rearLevel,
                                 maxLevel);
    }
    std::optional<ShadowChoice> selectShadow(unsigned level) override
    {
        return _inner->selectShadow(level);
    }
    void endPathWrite() override { _inner->endPathWrite(); }
    void onLlcMiss(Addr addr) override { _inner->onLlcMiss(addr); }
    void onRequestClassified(bool wasDummy) override
    {
        _inner->onRequestClassified(wasDummy);
    }
    unsigned partitionLevel() const override
    {
        return _inner->partitionLevel();
    }
    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        ++lookups;
        return _inner->hotnessOf(addr);
    }

    mutable std::uint64_t lookups = 0;

  private:
    std::unique_ptr<ShadowPolicy> _inner;
};

} // namespace

TEST(TinyOram, HotnessLookupsPerAccessStayBelowCapacityPlusInserts)
{
    // Deterministic op-count ceiling for LFU shadow displacement:
    // one access may re-read each resident shadow's hotness once
    // (after its LLC miss moved the counters) plus once per block it
    // inserts into the stash — not once per shadow per displacement.
    OramConfig cfg;
    cfg.dataBlocks = std::uint64_t(1) << 16;
    cfg.posMapMode = PosMapMode::OnChip;
    cfg.payloadEnabled = true;
    cfg.stashCapacity = 200;
    const unsigned leafLevel = cfg.deriveLevels();
    auto counting = std::make_unique<HotnessCountingPolicy>(
        std::make_unique<ShadowPolicy>(ShadowConfig{}, leafLevel));
    HotnessCountingPolicy &policy = *counting;
    DramModel dram(DramTiming::ddr3_1333(), DramGeometry{});
    TinyOram oram(cfg, dram, std::move(counting));

    WorkloadGenerator gen(specProfile("mcf"), 12345);
    std::uint64_t worstExcess = 0, worstAccess = 0;
    Cycles t = 0;
    const std::vector<LlcMissRecord> trace = gen.generate(3000);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const LlcMissRecord &rec = trace[i];
        const std::uint64_t lookups0 = policy.lookups;
        const std::uint64_t inserts0 = oram.stash().inserts();
        t = oram
                .access(rec.addr % cfg.dataBlocks,
                        rec.isWrite ? Op::Write : Op::Read, t + 100)
                .completeAt;
        const std::uint64_t calls = policy.lookups - lookups0;
        const std::uint64_t ceiling =
            cfg.stashCapacity + (oram.stash().inserts() - inserts0);
        if (calls > ceiling && calls - ceiling > worstExcess) {
            worstExcess = calls - ceiling;
            worstAccess = i;
        }
    }
    // The displacement path must actually have run.
    EXPECT_GT(policy.lookups, trace.size());
    EXPECT_EQ(worstExcess, 0u) << "access " << worstAccess;
}

namespace {

/**
 * FNV-1a of the controller snapshot after a fixed payload-mode Shadow
 * run (hot set plus writes, so shadows, merges and re-encryptions all
 * happen).  The snapshot carries every ciphertext's nonce, tag and
 * lanes, so this pins the exact cipher bits — which no metric golden
 * can: a fresh run verifies its own tags whatever they are.
 */
std::uint64_t
ciphertextImageHash(const OramConfig &cfg, OramStats *stats = nullptr)
{
    OramStack fx(Scheme::Shadow, cfg);
    TinyOram &oram = fx.oram();
    Rng rng(23);
    Cycles t = 0;
    for (int i = 0; i < 1500; ++i) {
        const Addr a =
            rng.chance(0.8) ? rng.below(48) : rng.below(cfg.dataBlocks);
        t = oram.access(a, rng.chance(0.3) ? Op::Write : Op::Read,
                        t + 150)
                .completeAt;
    }
    if (stats)
        *stats = oram.stats();
    ckpt::Serializer out;
    oram.saveState(out);
    return ckpt::fnv1a(out.buffer().data(), out.buffer().size());
}

} // namespace

TEST(TinyOram, CiphertextImageIsPinned)
{
    OramStats st;
    EXPECT_EQ(ciphertextImageHash(smallConfig(), &st),
              0x74d4f536e72ac192ULL);
    EXPECT_GT(st.shadowsWritten, 0u);

    // Faults and tier-1 quarantine on: detection, healing and the
    // spare-store parks all run, and the image still may not move.
    OramConfig cfg = smallConfig();
    cfg.fault.rate = 0.02;
    cfg.fault.seed = 42;
    cfg.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.health.quarantineThreshold = 1;
    EXPECT_EQ(ciphertextImageHash(cfg, &st), 0x5def9a1f331227b1ULL);
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_GT(st.quarantineEvacuations, 0u);
}

namespace {

/**
 * FNV-1a over a fixed Tiny ORAM run under timing protection (the
 * request-slot front end of System's OramPort, stall-on-miss): every
 * path access's finish time — each request's forward and completion
 * cycle, each dummy's completion — followed by the DRAM counters.
 * Pins the DRAM schedule path reads and writes produce, which the
 * metric goldens see only through sums.
 */
std::uint64_t
tpPathTimingHash(const OramConfig &cfg, OramStats *stats)
{
    OramStack fx(Scheme::Tiny, cfg);
    TinyOram &oram = fx.oram();
    const Cycles path = oram.estimatePathReadLatency();
    const Cycles interval = path + 2 * path / cfg.evictionRate;
    WorkloadGenerator gen(specProfile("hmmer"), 99);
    ckpt::Serializer out;
    Cycles ready = 0, nextSlot = 0;
    for (const LlcMissRecord &rec : gen.generate(800)) {
        const Addr a = rec.addr % cfg.dataBlocks;
        const Op op = rec.isWrite ? Op::Write : Op::Read;
        const Cycles issue = ready + rec.computeGap;
        if (oram.wouldHitStash(a, op)) {
            ready = oram.access(a, op, issue).forwardAt;
            continue;
        }
        while (nextSlot < issue) {
            out.u64(oram.dummyAccess(nextSlot));
            nextSlot += interval;
        }
        const AccessResult r = oram.access(a, op, nextSlot);
        nextSlot += interval;
        out.u64(r.forwardAt);
        out.u64(r.completeAt);
        ready = r.forwardAt;
    }
    *stats = oram.stats();
    const DramStats &d = fx.dram().stats();
    for (std::uint64_t v :
         {d.activates, d.reads, d.writes, d.rowHits, d.rowMisses})
        out.u64(v);
    return ckpt::fnv1a(out.buffer().data(), out.buffer().size());
}

} // namespace

TEST(TinyOram, TpPathTimingIsPinned)
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 14;
    cfg.posMapMode = PosMapMode::Recursive;
    cfg.onChipPosMapEntries = 1 << 10;
    cfg.seed = 5;
    OramStats st;
    EXPECT_EQ(tpPathTimingHash(cfg, &st), 0x46f1a6af7bb6bfd0ULL);
    EXPECT_GT(st.dummyAccesses, 0u);
    EXPECT_GT(st.posMapAccesses, 0u);
    EXPECT_GT(st.pathWrites, 0u);

    // Treetop caching and XOR bus compression: shorter off-chip
    // paths and the 1/Z read burst.
    cfg.treetopLevels = 3;
    cfg.xorCompression = true;
    EXPECT_EQ(tpPathTimingHash(cfg, &st), 0xbce398f4d547d2e3ULL);
    EXPECT_GT(st.dummyAccesses, 0u);
}
