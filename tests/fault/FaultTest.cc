#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "../oram/OramTestUtil.hh"
#include "common/Errors.hh"
#include "common/Rng.hh"
#include "fault/FaultInjector.hh"
#include "mem/AddressMap.hh"
#include "security/InvariantChecker.hh"
#include "sim/System.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

/** Drive @p n random accesses and return the final time. */
Cycles
drive(TinyOram &oram, int n, std::uint64_t addrSpace,
      std::uint64_t rngSeed = 91)
{
    Rng rng(rngSeed);
    Cycles t = 0;
    for (int i = 0; i < n; ++i) {
        t = oram.access(rng.below(addrSpace),
                        rng.chance(0.3) ? Op::Write : Op::Read,
                        t + 150)
                .completeAt;
    }
    return t;
}

OramConfig
faultyConfig(double rate, UnrecoverablePolicy policy)
{
    OramConfig cfg = smallConfig();
    cfg.fault.rate = rate;
    cfg.fault.seed = 42;
    cfg.fault.onUnrecoverable = policy;
    return cfg;
}

/**
 * What a patrol scrub of @p oram must find, worked out independently
 * of it: every tree slot's tag is checked, and a corrupt real is
 * healable when its stash entry or *any* tree slot (not just its path)
 * holds an intact same-version shadow.
 */
struct LatentCorruption
{
    unsigned corruptReals = 0;
    unsigned healableReals = 0;
    unsigned corruptShadows = 0;
    bool allHealable = true;
    /** Each block's readable payload, from the stash, its intact real
     *  copy, or the shadow a heal would use. */
    std::map<Addr, std::vector<std::uint64_t>> expected;
};

LatentCorruption
surveyCorruption(const TinyOram &oram)
{
    const OramTree &tree = oram.tree();
    const OtpCodec codec;
    LatentCorruption out;
    oram.stash().forEach([&](const StashEntry &e) {
        if (e.type == BlockType::Real)
            out.expected[e.addr] = e.payload;
    });
    auto intactShadow = [&](const Slot &real,
                            std::vector<std::uint64_t> &plain) {
        const StashEntry *sh = oram.stash().find(real.addr);
        if (sh && sh->isShadow() && sh->version == real.version) {
            plain = sh->payload;
            return true;
        }
        for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
            for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
                const Slot &c = tree.slot(b, s);
                if (c.isShadow() && c.addr == real.addr &&
                    c.version == real.version &&
                    codec.verifyDecrypt(
                        tree.cipherView(tree.slotIndex(b, s)), plain))
                    return true;
            }
        }
        return false;
    };
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &slot = tree.slot(b, s);
            if (!slot.valid())
                continue;
            const CipherView ct = tree.cipherView(tree.slotIndex(b, s));
            if (slot.isShadow()) {
                out.corruptShadows += codec.verify(ct) ? 0 : 1;
                continue;
            }
            std::vector<std::uint64_t> &plain = out.expected[slot.addr];
            if (codec.verifyDecrypt(ct, plain))
                continue;
            ++out.corruptReals;
            if (intactShadow(slot, plain))
                ++out.healableReals;
            else
                out.allHealable = false;
        }
    }
    return out;
}

/**
 * Flip a bit in a tree real that has a same-version tree shadow, and
 * in a tree shadow of some other block.  False when the tree holds no
 * such pair.
 */
bool
plantHealableCorruption(TinyOram &oram)
{
    auto &tree = const_cast<OramTree &>(oram.tree());
    std::uint64_t realIdx = ~0ULL, shadowIdx = ~0ULL;
    Addr healable = kInvalidAddr;
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &sh = tree.slot(b, s);
            if (!sh.isShadow())
                continue;
            if (healable != kInvalidAddr) {
                if (sh.addr != healable && shadowIdx == ~0ULL)
                    shadowIdx = tree.slotIndex(b, s);
                continue;
            }
            const BucketIndex rb = tree.bucketOnPath(
                oram.posMap().lookup(sh.addr), oram.realLevelOf(sh.addr));
            for (unsigned rs = 0; rs < tree.slotsPerBucket(); ++rs) {
                const Slot &r = tree.slot(rb, rs);
                if (r.isReal() && r.addr == sh.addr &&
                    r.version == sh.version) {
                    realIdx = tree.slotIndex(rb, rs);
                    healable = sh.addr;
                }
            }
        }
    }
    if (shadowIdx == ~0ULL)
        return false;
    tree.cipherRef(realIdx).lanes[0] ^= 1;
    tree.cipherRef(shadowIdx).lanes[0] ^= 1;
    return true;
}

} // namespace

TEST(FaultInjector, ScheduleIsDeterministicAndSeedSensitive)
{
    FaultConfig cfg;
    cfg.rate = 0.01;
    cfg.seed = 5;
    FaultInjector a(cfg), b(cfg);
    cfg.seed = 6;
    FaultInjector c(cfg);

    int fires = 0, diverged = 0;
    for (std::uint64_t tick = 0; tick < 20000; ++tick) {
        ASSERT_EQ(a.shouldInject(tick), b.shouldInject(tick));
        if (a.shouldInject(tick)) {
            ++fires;
            EXPECT_EQ(a.pickTarget(tick, 17), b.pickTarget(tick, 17));
            EXPECT_EQ(a.pickKind(tick), b.pickKind(tick));
        }
        if (a.shouldInject(tick) != c.shouldInject(tick))
            ++diverged;
    }
    // 20000 draws at 1% — expect ~200, generously bounded.
    EXPECT_GT(fires, 100);
    EXPECT_LT(fires, 400);
    EXPECT_GT(diverged, 0) << "seed has no effect on the schedule";
}

TEST(FaultInjector, ZeroRateNeverFires)
{
    FaultConfig cfg;
    cfg.rate = 0.0;
    FaultInjector inj(cfg);
    for (std::uint64_t tick = 0; tick < 5000; ++tick)
        EXPECT_FALSE(inj.shouldInject(tick));
}

TEST(FaultInjector, CorruptionDefeatsTheAuthTag)
{
    OtpCodec codec;
    const std::vector<std::uint64_t> payload(8, 0x1234);
    FaultConfig cfg;
    cfg.rate = 1.0;
    FaultInjector inj(cfg);

    for (FaultKind kind : {FaultKind::BitFlip, FaultKind::DroppedWrite,
                           FaultKind::StuckBit}) {
        CipherText ct = codec.encrypt(payload);
        inj.corrupt(ct, /*accessCount=*/7, kind, /*slotIdx=*/3);
        std::vector<std::uint64_t> out;
        EXPECT_FALSE(codec.verifyDecrypt(ct, out))
            << "kind " << static_cast<int>(kind)
            << " left the ciphertext verifiable";
    }
    EXPECT_EQ(inj.stats().bitFlips, 1u);
    EXPECT_EQ(inj.stats().droppedWrites, 1u);
    EXPECT_EQ(inj.stats().stuckBits, 1u);
    EXPECT_EQ(inj.stats().total(), 3u);
}

TEST(FaultInjector, StuckBitSurvivesConfiguredRewrites)
{
    OtpCodec codec;
    const std::vector<std::uint64_t> payload(8, 9);
    FaultConfig cfg;
    cfg.rate = 1.0;
    cfg.stuckWrites = 2;
    FaultInjector inj(cfg);

    CipherText ct = codec.encrypt(payload);
    inj.corrupt(ct, 0, FaultKind::StuckBit, /*slotIdx=*/11);

    // The next two rewrites of slot 11 are re-corrupted, then the
    // cell heals; other slots are never touched.
    CipherText other = codec.encrypt(payload);
    EXPECT_FALSE(inj.onSlotRewritten(12, other));

    CipherText fresh1 = codec.encrypt(payload);
    EXPECT_TRUE(inj.onSlotRewritten(11, fresh1));
    std::vector<std::uint64_t> out;
    EXPECT_FALSE(codec.verifyDecrypt(fresh1, out));

    CipherText fresh2 = codec.encrypt(payload);
    EXPECT_TRUE(inj.onSlotRewritten(11, fresh2));

    CipherText fresh3 = codec.encrypt(payload);
    EXPECT_FALSE(inj.onSlotRewritten(11, fresh3));
    EXPECT_TRUE(codec.verifyDecrypt(fresh3, out));
    EXPECT_EQ(inj.stats().stuckReapplied, 2u);
}

TEST(FaultInjector, FromEnvParsesAndValidates)
{
    setenv("SB_FAULT_RATE", "0.25", 1);
    setenv("SB_FAULT_SEED", "77", 1);
    setenv("SB_FAULT_KINDS", "flip,stuck", 1);
    setenv("SB_FAULT_UNRECOVERABLE", "count", 1);
    FaultConfig cfg = FaultConfig::fromEnv();
    EXPECT_DOUBLE_EQ(cfg.rate, 0.25);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_TRUE(cfg.bitFlips);
    EXPECT_FALSE(cfg.droppedWrites);
    EXPECT_TRUE(cfg.stuckBits);
    EXPECT_EQ(cfg.onUnrecoverable, UnrecoverablePolicy::Count);

    // Invalid values are rejected, keeping the base.
    setenv("SB_FAULT_RATE", "2.5", 1);
    setenv("SB_FAULT_UNRECOVERABLE", "explode", 1);
    FaultConfig kept = FaultConfig::fromEnv();
    EXPECT_DOUBLE_EQ(kept.rate, 0.0);
    EXPECT_EQ(kept.onUnrecoverable, UnrecoverablePolicy::Panic);

    unsetenv("SB_FAULT_RATE");
    unsetenv("SB_FAULT_SEED");
    unsetenv("SB_FAULT_KINDS");
    unsetenv("SB_FAULT_UNRECOVERABLE");
}

TEST(FaultRecovery, ZeroRateLeavesEveryCounterZero)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    drive(fx.oram(), 800, 1 << 10);
    const OramStats &st = fx.oram().stats();
    EXPECT_EQ(fx.oram().faultInjector(), nullptr);
    EXPECT_EQ(st.faultsInjected, 0u);
    EXPECT_EQ(st.faultsDetected, 0u);
    EXPECT_EQ(st.faultsRecovered, 0u);
    EXPECT_EQ(st.faultsUnrecoverable, 0u);
    EXPECT_TRUE(checkInvariants(fx.oram()).ok);
}

TEST(FaultRecovery, ShadowCopiesHealCorruptedRealBlocks)
{
    OramStack fx(Scheme::Shadow,
                 faultyConfig(0.05, UnrecoverablePolicy::Count));
    drive(fx.oram(), 2500, 1 << 10);
    const OramStats &st = fx.oram().stats();

    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_GT(st.faultsRecovered, 0u)
        << "duplication never healed a corruption";
    EXPECT_EQ(st.faultsDetected,
              st.faultsRecovered + st.faultsUnrecoverable);

    // The fault path must not corrupt controller metadata: the full
    // invariant walk still passes after thousands of faulty accesses.
    EXPECT_TRUE(checkInvariants(fx.oram()).ok);
}

TEST(FaultRecovery, BaselineWithoutShadowsLosesEveryCorruptedReal)
{
    // No duplication policy: every detected corruption of a real
    // block is unrecoverable (there is nothing to heal from).
    OramStack fx(Scheme::Tiny, faultyConfig(0.05, UnrecoverablePolicy::Count));
    drive(fx.oram(), 2500, 1 << 10);
    const OramStats &st = fx.oram().stats();
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_EQ(st.faultsRecovered, 0u);
    EXPECT_EQ(st.faultsUnrecoverable, st.faultsDetected);
}

TEST(FaultRecovery, ThrowPolicyRaisesRetryableCorruptionError)
{
    OramStack fx(Scheme::Tiny, faultyConfig(0.2, UnrecoverablePolicy::Throw));
    try {
        drive(fx.oram(), 4000, 1 << 10);
        FAIL() << "no corruption surfaced at 20% fault rate";
    } catch (const CorruptionError &e) {
        EXPECT_TRUE(e.retryable())
            << "injected faults are transient by construction";
        EXPECT_NE(std::string(e.what()).find("integrity violation"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultRecovery, InjectionIsReproducibleRunToRun)
{
    OramConfig cfg = faultyConfig(0.05, UnrecoverablePolicy::Count);
    OramStack a(Scheme::Shadow, cfg);
    OramStack b(Scheme::Shadow, cfg);
    drive(a.oram(), 1500, 1 << 10);
    drive(b.oram(), 1500, 1 << 10);
    EXPECT_EQ(a.oram().stats().faultsInjected,
              b.oram().stats().faultsInjected);
    EXPECT_EQ(a.oram().stats().faultsDetected,
              b.oram().stats().faultsDetected);
    EXPECT_EQ(a.oram().stats().faultsRecovered,
              b.oram().stats().faultsRecovered);
    EXPECT_EQ(a.oram().stats().faultsUnrecoverable,
              b.oram().stats().faultsUnrecoverable);
}

TEST(FaultRecovery, ScrubHealsLatentCorruptionFromShadows)
{
    // No stuck bits: a stuck cell re-corrupts a healed rewrite, which
    // the scrub rightly reports as not clean.
    OramConfig cfg = faultyConfig(0.02, UnrecoverablePolicy::Count);
    cfg.fault.stuckBits = false;
    OramStack fx(Scheme::Shadow, cfg);
    TinyOram &oram = fx.oram();

    // Patrol-scrub at every access boundary; a small hot set keeps
    // shadows around to heal from.
    Rng rng(17);
    Cycles t = 0;
    unsigned healedReals = 0, cleanHeals = 0;
    for (int step = 0; step < 1500; ++step) {
        const Addr a =
            rng.chance(0.9) ? rng.below(32) : rng.below(1 << 10);
        t = oram.access(a, rng.chance(0.3) ? Op::Write : Op::Read,
                        t + 150)
                .completeAt;
        // Injected corruption of a shadow never outlives the read that
        // planted it, and a corrupt real rarely has a shadow, so plant
        // both kinds by hand now and then.
        if (step % 50 == 49) {
            ASSERT_TRUE(plantHealableCorruption(oram)) << step;
        }
        const LatentCorruption before = surveyCorruption(oram);
        const OramStats st0 = oram.stats();
        ASSERT_EQ(oram.scrubStorage(), before.allHealable) << step;
        const OramStats &st = oram.stats();
        const unsigned healed =
            before.healableReals + before.corruptShadows;
        EXPECT_EQ(st.faultsDetected, st0.faultsDetected + healed);
        EXPECT_EQ(st.faultsRecovered, st0.faultsRecovered + healed);
        EXPECT_EQ(st.faultsUnrecoverable, st0.faultsUnrecoverable);
        healedReals += before.healableReals;
        if (before.corruptShadows + before.corruptReals == 0 ||
            !before.allHealable)
            continue;

        // Nothing latent is left, and no block's readable payload
        // moved.
        ++cleanHeals;
        const LatentCorruption after = surveyCorruption(oram);
        EXPECT_EQ(after.corruptReals + after.corruptShadows, 0u);
        ASSERT_EQ(before.expected.size(), std::size_t(1) << 10);
        for (const auto &[addr, payload] : before.expected)
            EXPECT_EQ(oram.peekPayload(addr), payload) << addr;
        EXPECT_TRUE(checkInvariants(oram).ok) << step;
    }
    EXPECT_GT(healedReals, 0u) << "no corrupt real was ever healed";
    EXPECT_GT(cleanHeals, 1u);
    const OramStats &st = oram.stats();
    EXPECT_EQ(st.faultsDetected,
              st.faultsRecovered + st.faultsUnrecoverable);
}

TEST(FaultRecovery, ScrubLeavesUnhealableRealForThePathRead)
{
    OramConfig cfg = smallConfig();
    cfg.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    OramStack fx(Scheme::Tiny, cfg);
    TinyOram &oram = fx.oram();
    drive(oram, 300, 1 << 10);

    // Flip one lane of a leaf-level real block: no shadow exists
    // under the Tiny scheme, so nothing can heal it.
    auto &tree = const_cast<OramTree &>(oram.tree());
    BucketIndex leafBucket = tree.numBuckets() - 1;
    unsigned s = 0;
    while (!tree.slot(leafBucket, s).isReal()) {
        if (++s == tree.slotsPerBucket()) {
            s = 0;
            ASSERT_GT(--leafBucket, tree.numBuckets() / 2);
        }
    }
    const Slot victim = tree.slot(leafBucket, s);
    const std::uint64_t idx = tree.slotIndex(leafBucket, s);
    tree.cipherRef(idx).lanes[0] ^= 1;
    const std::uint64_t corruptLane = tree.cipherView(idx).lanes[0];

    const OramStats st0 = oram.stats();
    EXPECT_FALSE(oram.scrubStorage());
    // The scrub left the slot and every counter alone.
    EXPECT_EQ(tree.slot(leafBucket, s).addr, victim.addr);
    EXPECT_EQ(tree.slot(leafBucket, s).version, victim.version);
    EXPECT_TRUE(tree.slot(leafBucket, s).isReal());
    EXPECT_EQ(tree.cipherView(idx).lanes[0], corruptLane);
    EXPECT_EQ(oram.stats().faultsDetected, st0.faultsDetected);
    EXPECT_EQ(oram.stats().faultsUnrecoverable, st0.faultsUnrecoverable);

    // The next path read of the block does the accounting, once.
    oram.access(victim.addr, Op::Read, oram.freeAt() + 150);
    EXPECT_EQ(oram.stats().faultsDetected, st0.faultsDetected + 1);
    EXPECT_EQ(oram.stats().faultsUnrecoverable,
              st0.faultsUnrecoverable + 1);
    EXPECT_EQ(oram.stats().faultsRecovered, st0.faultsRecovered);
    EXPECT_EQ(oram.peekPayload(victim.addr),
              std::vector<std::uint64_t>(cfg.blockBytes / 8, 0));
    EXPECT_TRUE(oram.scrubStorage());
    EXPECT_TRUE(checkInvariants(oram).ok);
}

namespace {

/** Records the externally visible path sequence. */
struct PathLog : TraceSink
{
    std::vector<std::pair<LeafLabel, bool>> paths;
    void
    onPathAccess(LeafLabel leaf, bool isWrite) override
    {
        paths.emplace_back(leaf, isWrite);
    }
};

/**
 * A Shadow controller with spare-parked slots: after a warm-up, every
 * fourth tree real that has a same-version shadow is corrupted and the
 * patrol scrub heals it into the on-chip spare store (quarantine
 * threshold 1).  Then a deterministic hot-set access stream runs.
 * Every instance replays the same history, so a fresh one stands in
 * for a snapshot of an earlier one.
 */
struct ParkedTree
{
    std::unique_ptr<OramStack> fx;
    Rng rng{5};
    Cycles t = 0;

    ParkedTree()
    {
        OramConfig cfg = smallConfig();
        cfg.fault.onUnrecoverable = UnrecoverablePolicy::Count;
        cfg.health.quarantineThreshold = 1;
        fx = std::make_unique<OramStack>(Scheme::Shadow, cfg);
        for (int i = 0; i < 600; ++i)
            step();
        // Only every fourth, so plenty of healable pairs stay.
        OramTree &tree = treeMut();
        unsigned pairs = 0;
        for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
            for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
                const Slot &r = tree.slot(b, s);
                if (r.isReal() &&
                    healable(r, AddressMap::levelOf(b)) &&
                    pairs++ % 4 == 0)
                    tree.cipherRef(tree.slotIndex(b, s)).lanes[0] ^= 1;
            }
        }
        oram().scrubStorage();
    }

    TinyOram &oram() { return fx->oram(); }
    OramTree &treeMut() { return const_cast<OramTree &>(oram().tree()); }

    /** A parked slot: occupied, but its stripe is erased. */
    bool
    parked(std::uint64_t slotIdx) const
    {
        const OramTree &tree = fx->oram().tree();
        return tree.slot(slotIdx / tree.slotsPerBucket(),
                         slotIdx % tree.slotsPerBucket())
                   .valid() &&
               !tree.hasCipher(slotIdx);
    }

    /** True when @p real (at @p level) has an intact same-version
     *  shadow to heal from: in the stash, or above it on its path. */
    bool
    healable(const Slot &real, unsigned level) const
    {
        const StashEntry *st = fx->oram().stash().find(real.addr);
        if (st && st->isShadow() && st->version == real.version)
            return true;
        const OramTree &tree = fx->oram().tree();
        for (unsigned lvl = 0; lvl < level; ++lvl) {
            const BucketIndex b = tree.bucketOnPath(real.leaf, lvl);
            for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
                const Slot &c = tree.slot(b, s);
                const std::uint64_t idx = tree.slotIndex(b, s);
                if (c.isShadow() && c.addr == real.addr &&
                    c.version == real.version &&
                    (!tree.hasCipher(idx) ||
                     OtpCodec().verify(tree.cipherView(idx))))
                    return true;
            }
        }
        return false;
    }

    static std::pair<Addr, Op>
    drawFrom(Rng &r)
    {
        const Addr a = r.chance(0.8) ? r.below(48) : r.below(1 << 10);
        return {a, r.chance(0.3) ? Op::Write : Op::Read};
    }

    /** The next access, without taking it. */
    std::pair<Addr, Op>
    peek() const
    {
        Rng r = rng;
        return drawFrom(r);
    }

    void
    step()
    {
        const auto [a, op] = drawFrom(rng);
        t = oram().access(a, op, t + 150).completeAt;
    }
};

/** One path read of the access at @p step: its leaf, the intended
 *  address (kInvalidAddr for an eviction) and the slots it takes. */
struct ReadPlan
{
    int step = -1;
    Addr want = kInvalidAddr;
    std::vector<std::uint64_t> taken;    ///< Slots with a ciphertext.
    std::vector<std::uint64_t> parked;   ///< Taken spare-parked slots.
};

/** Slots on the path to @p leaf that a read for @p want takes. */
ReadPlan
planRead(ParkedTree &pt, LeafLabel leaf, Addr want, bool evict)
{
    ReadPlan plan;
    plan.want = want;
    const OramTree &tree = pt.oram().tree();
    for (unsigned lvl = 0; lvl <= tree.leafLevel(); ++lvl) {
        const BucketIndex b = tree.bucketOnPath(leaf, lvl);
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &slot = tree.slot(b, s);
            const std::uint64_t idx = tree.slotIndex(b, s);
            if (!slot.valid() ||
                !(evict || slot.addr == want || slot.isShadow()))
                continue;
            (pt.parked(idx) ? plan.parked : plan.taken).push_back(idx);
        }
    }
    return plan;
}

/** Fresh ParkedTree advanced to just before access @p step. */
std::unique_ptr<ParkedTree>
replayTo(int step)
{
    auto pt = std::make_unique<ParkedTree>();
    for (int i = 0; i < step; ++i)
        pt->step();
    return pt;
}

/**
 * Corrupt each taken slot of @p plan's read in turn (one per fresh
 * replay) and run the access: exactly that slot is detected, a real
 * with a same-version shadow is healed, and every block reads back
 * as in the clean run — so the batched verdicts line up with the
 * slots the take loop consumes, and no parked slot is ever verified
 * (its erased stripe would fail, or trip the no-ciphertext check).
 * @p skip lists slots an earlier read of the same access takes.
 * Returns the number of healed reals.
 */
unsigned
corruptEachTaken(const ReadPlan &plan,
                 const std::vector<std::uint64_t> &skip = {})
{
    auto clean = replayTo(plan.step);
    clean->step();
    const OramStats base = clean->oram().stats();
    unsigned healedReals = 0;
    for (std::uint64_t idx : plan.taken) {
        if (std::find(skip.begin(), skip.end(), idx) != skip.end())
            continue;
        auto pt = replayTo(plan.step);
        OramTree &tree = pt->treeMut();
        const std::uint64_t z = tree.slotsPerBucket();
        const Slot victim = tree.slot(idx / z, idx % z);
        const bool healable =
            victim.isShadow() ||
            pt->healable(victim, AddressMap::levelOf(idx / z));
        tree.cipherRef(idx).lanes[1] ^= 4;
        pt->step();
        SCOPED_TRACE(testing::Message() << "step " << plan.step
                                        << " slot " << idx);
        const OramStats &st = pt->oram().stats();
        EXPECT_EQ(st.faultsDetected, base.faultsDetected + 1);
        EXPECT_EQ(st.faultsRecovered,
                  base.faultsRecovered + (healable ? 1 : 0));
        EXPECT_EQ(st.faultsUnrecoverable,
                  base.faultsUnrecoverable + (healable ? 0 : 1));
        if (victim.isReal() && healable) {
            ++healedReals;
            EXPECT_EQ(pt->oram().peekPayload(victim.addr),
                      clean->oram().peekPayload(victim.addr));
        }
        if (plan.want != kInvalidAddr) {
            EXPECT_EQ(pt->oram().peekPayload(plan.want),
                      clean->oram().peekPayload(plan.want));
        }
        EXPECT_TRUE(checkInvariants(pt->oram()).ok);
    }
    return healedReals;
}

} // namespace

TEST(FaultRecovery, PathReadVerdictsAlignWithTakenSlots)
{
    // Find, in the replayed stream, a Request read and an Evict read
    // that each take a spare-parked slot and at least one slot with a
    // ciphertext, and (for the eviction) a healable real.  `lead`
    // runs each access first to learn the paths it reads; `lag` is
    // the pre-access state the plans are made against.
    ParkedTree lead, lag;
    PathLog log;
    lead.oram().setTraceSink(&log);
    ReadPlan request, evict;
    std::vector<std::uint64_t> requestTakes;
    for (int step = 0; step < 1500; ++step) {
        if (request.step >= 0 && evict.step >= 0)
            break;
        log.paths.clear();
        lead.step();
        std::vector<LeafLabel> reads;
        for (const auto &[leaf, isWrite] : log.paths)
            if (!isWrite)
                reads.push_back(leaf);
        const Addr want = lag.peek().first;
        if (!reads.empty()) {
            ReadPlan r = planRead(lag, reads[0], want, false);
            r.step = step;
            if (request.step < 0 && !r.parked.empty() &&
                !r.taken.empty())
                request = r;
            if (evict.step < 0 && reads.size() >= 2) {
                ReadPlan e = planRead(lag, reads[1], kInvalidAddr, true);
                e.step = step;
                const OramTree &tree = lag.oram().tree();
                const std::uint64_t z = tree.slotsPerBucket();
                bool healableReal = false;
                for (std::uint64_t idx : e.taken) {
                    const Slot &sl = tree.slot(idx / z, idx % z);
                    healableReal |=
                        sl.isReal() && sl.addr != want &&
                        lag.healable(sl,
                                        AddressMap::levelOf(idx / z));
                }
                if (!e.parked.empty() && healableReal) {
                    evict = e;
                    requestTakes = r.taken;
                }
            }
        }
        lag.step();
    }
    ASSERT_GE(request.step, 0) << "no Request read took a parked slot";
    ASSERT_GE(evict.step, 0) << "no Evict read took a parked slot";

    corruptEachTaken(request);
    // Slots the same access's Request read takes first are that
    // read's detections, not the eviction's.
    EXPECT_GT(corruptEachTaken(evict, requestTakes), 0u);
}

TEST(FaultRecovery, FaultInjectionRequiresPayloadMode)
{
    OramConfig cfg = smallConfig();
    cfg.payloadEnabled = false;
    cfg.fault.rate = 0.01;
    EXPECT_EXIT(
        { OramStack fx(Scheme::Tiny, cfg); },
        testing::ExitedWithCode(kFatalExitCode), "payload mode");
}

TEST(Watchdog, CleanRunPassesAndIsMetricNeutral)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Shadow;
    cfg.oram = smallConfig();
    std::vector<LlcMissRecord> trace = makeTrace("mcf", 1200, 3);

    SystemConfig watched = cfg;
    watched.watchdogInterval = 128;
    RunMetrics plain = runSystem(cfg, trace);
    RunMetrics m = runSystem(watched, trace);

    // The watchdog is read-only: identical simulation results.
    EXPECT_EQ(m.execTime, plain.execTime);
    EXPECT_EQ(m.requests, plain.requests);
    EXPECT_EQ(m.pathReads, plain.pathReads);
    EXPECT_EQ(m.shadowsWritten, plain.shadowsWritten);
}

TEST(Watchdog, EnforceThrowsOnCorruptedState)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    drive(fx.oram(), 400, 1 << 10);
    EXPECT_NO_THROW(enforceInvariants(fx.oram(), 400));

    auto &tree = const_cast<OramTree &>(fx.oram().tree());
    bool corrupted = false;
    for (BucketIndex b = 0; b < tree.numBuckets() && !corrupted; ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            if (tree.slot(b, s).isReal()) {
                tree.slot(b, s).leaf ^= 1;
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    try {
        enforceInvariants(fx.oram(), 400);
        FAIL() << "corrupted state passed the watchdog";
    } catch (const InvariantViolationError &e) {
        EXPECT_EQ(e.accessCount(), 400u);
        EXPECT_FALSE(e.retryable());
        EXPECT_NE(std::string(e.what()).find("invariant violation"),
                  std::string::npos);
    }
}
