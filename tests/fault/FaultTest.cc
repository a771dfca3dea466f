#include <gtest/gtest.h>

#include <cstdlib>

#include "../oram/OramTestUtil.hh"
#include "common/Errors.hh"
#include "common/Rng.hh"
#include "fault/FaultInjector.hh"
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
