/**
 * @file
 * End-to-end checkpoint/restore: a run interrupted mid-flight and
 * resumed from its snapshot must produce RunMetrics bit-identical to
 * an uninterrupted run, across every scheme — and a damaged snapshot
 * must demote through the recovery tiers (previous generation, then
 * deterministic replay) instead of crashing or silently diverging.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../common/TempDir.hh"
#include "../sim/SimTestUtil.hh"
#include "../svc/ServiceTestUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "common/Logging.hh"
#include "sim/ExperimentRunner.hh"
#include "svc/Service.hh"

using namespace sboram;
using sboram::test::TempDir;
using sboram::test::expectSameMetrics;
using sboram::test::interruptAfter;
using sboram::test::resumeFrom;
using sboram::test::expectSameServiceStats;
using sboram::test::interruptService;
using sboram::test::resumeService;
using sboram::test::smallSystem;

namespace {

constexpr std::uint64_t kMisses = 1500;
constexpr std::uint64_t kSeed = 99;

std::string
slotFile(const std::string &dir, std::uint64_t key, unsigned slot)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return dir + "/pt-" + std::string(buf) + ".g" +
           std::to_string(slot);
}

void
flipByte(const std::string &path, std::size_t offset)
{
    std::vector<std::uint8_t> image = ckpt::readFile(path);
    ASSERT_GT(image.size(), offset);
    image[offset] ^= 0x40;
    ckpt::writeFileAtomic(path, image);
}

struct NamedConfig
{
    const char *name;
    SystemConfig cfg;
};

/** Every scheme/feature combination the snapshot has to cover. */
std::vector<NamedConfig>
resumeMatrix()
{
    std::vector<NamedConfig> matrix;

    matrix.push_back({"insecure", smallSystem(Scheme::Insecure)});

    {
        SystemConfig cfg = smallSystem(Scheme::Tiny);
        cfg.oram.posMapMode = PosMapMode::OnChip;
        matrix.push_back({"tiny-onchip", cfg});
    }
    matrix.push_back({"tiny-recursive", smallSystem(Scheme::Tiny)});

    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::RdOnly;
        matrix.push_back({"shadow-rd", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::HdOnly;
        matrix.push_back({"shadow-hd", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.shadow.mode = ShadowMode::DynamicPartition;
        cfg.timingProtection = true;
        cfg.recordPerMiss = true;
        matrix.push_back({"shadow-dynamic-tp", cfg});
    }
    {
        // Payload mode with live fault injection: the injector's
        // stuck-cell table and the ciphertext store must both
        // survive the round trip for the fault counters to match.
        SystemConfig cfg = smallSystem(Scheme::Shadow);
        cfg.oram.payloadEnabled = true;
        cfg.oram.fault.rate = 0.02;
        cfg.oram.fault.seed = 11;
        cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
        matrix.push_back({"shadow-faults", cfg});
    }
    {
        SystemConfig cfg = smallSystem(Scheme::Tiny);
        cfg.cpu = CpuKind::OutOfOrder;
        cfg.cores = 2;
        cfg.window = 4;
        matrix.push_back({"tiny-ooo", cfg});
    }
    return matrix;
}

/** Path of the newer of the two snapshot generations. */
std::string
newestGeneration(const std::string &dir, std::uint64_t key)
{
    const std::string g0 = slotFile(dir, key, 0);
    const std::string g1 = slotFile(dir, key, 1);
    const std::uint64_t seq0 =
        ckpt::SnapshotReader(ckpt::readFile(g0)).seq();
    const std::uint64_t seq1 =
        ckpt::SnapshotReader(ckpt::readFile(g1)).seq();
    EXPECT_NE(seq0, seq1);
    return seq0 > seq1 ? g0 : g1;
}

class CkptResume : public ::testing::Test
{
  protected:
    void SetUp() override { ckpt::clearStopForTesting(); }

    void
    TearDown() override
    {
        ckpt::clearStopForTesting();
        ckpt::setDirectoryForTesting(nullptr);
    }
};

} // namespace

TEST_F(CkptResume, ResumedRunMatchesUninterruptedAcrossSchemes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    for (const NamedConfig &point : resumeMatrix()) {
        SCOPED_TRACE(point.name);
        const RunMetrics m0 = runSystem(point.cfg, trace);

        TempDir dir;
        interruptAfter(point.cfg, trace, dir.path(), 157, 450);
        expectSameMetrics(m0, resumeFrom(point.cfg, trace, dir.path(), 157));
    }
}

TEST_F(CkptResume, SurvivesRepeatedInterruptions)
{
    const auto trace = makeTrace("hmmer", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    for (std::uint64_t stopAt : {300u, 700u, 1100u})
        interruptAfter(cfg, trace, dir.path(), 200, stopAt);
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 200));
}

TEST_F(CkptResume, CorruptedLatestFallsBackToPreviousGeneration)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    interruptAfter(cfg, trace, dir.path(), 157, 450);
    // Both generations exist now; tamper with the newer one.
    flipByte(newestGeneration(dir.path(), configFingerprint(cfg)), 50);

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 157));
    EXPECT_EQ(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 1);
}

TEST_F(CkptResume, VersionSkewIsRejectedBeforeAnyStateIsRestored)
{
    // A snapshot from a different format version (the slab layout
    // bumped kSnapshotVersion) must be rejected at reader
    // construction — before a single field of the target system is
    // mutated — and demote to the previous generation exactly like
    // corruption does.  Payload + faults so the ciphertext slab serde
    // is on the restored path.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 11;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    interruptAfter(cfg, trace, dir.path(), 157, 450);

    // The version u32 sits at byte 8, right after the magic.  Skew
    // the newest generation's version field.
    const std::string newest =
        newestGeneration(dir.path(), configFingerprint(cfg));
    flipByte(newest, 8);
    EXPECT_THROW(ckpt::SnapshotReader(ckpt::readFile(newest)),
                 CkptVersionError);

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 157));
    EXPECT_EQ(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 1);
}

TEST_F(CkptResume, BothGenerationsCorruptedReplaysFromStart)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Tiny);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    const std::uint64_t key = configFingerprint(cfg);
    interruptAfter(cfg, trace, dir.path(), 157, 450);

    // One generation tampered, the other torn mid-write.
    flipByte(slotFile(dir.path(), key, 0), 50);
    std::vector<std::uint8_t> torn =
        ckpt::readFile(slotFile(dir.path(), key, 1));
    torn.resize(60);
    ckpt::writeFileAtomic(slotFile(dir.path(), key, 1), torn);

    const std::uint64_t replaysBefore =
        ckpt::counters().replaysFromStart.load();
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 157));
    EXPECT_EQ(ckpt::counters().replaysFromStart.load(),
              replaysBefore + 1);
}

namespace {

/**
 * A shadow system under fault pressure heavy enough that tier-0
 * shadow healing eventually fails, with the whole recovery ladder
 * armed: quarantine, backpressure watermarks, fail-fast
 * unrecoverable policy, and a tier-3 rollback budget.  Watermarks
 * stay above the steady-state stash occupancy: pinning them below it
 * would suppress duplication permanently and strip the tier-0 heals
 * the rollback budget is sized for (the obliviousness tests drive
 * degraded mode directly instead).
 */
SystemConfig
ladderSystem()
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.005;
    cfg.oram.fault.seed = 11;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Throw;
    cfg.oram.health.quarantineThreshold = 2;
    cfg.oram.health.stashHighWatermark = 10;
    cfg.oram.health.stashLowWatermark = 4;
    // Generous budget: the fallback test below pins the cadence past
    // the end of the trace, so every rollback replays the whole tail
    // under a fresh realization and may need several attempts.
    cfg.maxAutoRollbacks = 32;
    cfg.checkpointInterval = 157;
    return cfg;
}

} // namespace

TEST_F(CkptResume, AutoRollbackCompletesWhatWouldOtherwiseThrow)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const SystemConfig cfg = ladderSystem();

    // Anchor: without a checkpoint session there is no tier 3, so
    // the same corruption that the ladder survives below is fatal.
    EXPECT_THROW(runSystem(cfg, trace), CorruptionError);

    // With a session the run rolls back, shifts the fault
    // realization, replays, and completes.
    TempDir dirA;
    ckpt::CheckpointSession a(dirA.path(), configFingerprint(cfg));
    const RunMetrics mA = runSystem(cfg, trace, &a);
    EXPECT_GE(mA.rollbacks, 1u);
    EXPECT_GE(mA.replayedAccesses, 1u);
    EXPECT_EQ(mA.requests, trace.size() + mA.dummyRequests);

    // Recovery itself is deterministic: an identical second run —
    // rollbacks, replays and all — lands on bit-identical metrics.
    TempDir dirB;
    ckpt::CheckpointSession b(dirB.path(), configFingerprint(cfg));
    expectSameMetrics(mA, runSystem(cfg, trace, &b));
}

TEST_F(CkptResume, CorruptedLatestFallsBackDuringAutoRollback)
{
    // Negative path inside tier 3: when the rollback handler loads a
    // snapshot and the newest generation is corrupt, it must demote a
    // generation — mid-recovery — exactly like resume does, and the
    // whole scripted disaster must still be deterministic.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const SystemConfig cfg = ladderSystem();

    auto scriptedDisaster = [&](const std::string &dir) {
        // Interrupt late so the generation the resume falls back to
        // is near the end of the trace: with the cadence then pushed
        // past the trace end, every rollback replays only the short
        // tail, which a shifted realization can actually complete.
        interruptAfter(cfg, trace, dir, cfg.checkpointInterval, 1350);
        // Tamper with the newer generation on disk.
        flipByte(newestGeneration(dir, configFingerprint(cfg)), 50);
        // Resume with the cadence pushed past the end of the trace:
        // no new snapshot ever overwrites the tampered file, so
        // every in-rollback loadLatest sees it and must demote.
        return resumeFrom(cfg, trace, dir, 1u << 20);
    };

    const std::uint64_t fallbacksBefore =
        ckpt::counters().resumedFromFallback.load();
    TempDir dirA;
    const RunMetrics mA = scriptedDisaster(dirA.path());
    EXPECT_GE(mA.rollbacks, 1u);
    // One demotion at resume, plus one per rollback that reached
    // loadLatest (at minimum the first — escalation to the pristine
    // image, when it happens, bypasses the generation walk).
    EXPECT_GE(ckpt::counters().resumedFromFallback.load(),
              fallbacksBefore + 2);

    TempDir dirB;
    expectSameMetrics(mA, scriptedDisaster(dirB.path()));
}

TEST_F(CkptResume, QuarantineSpareStoreRoundTripsThroughSnapshot)
{
    // Tier-1 remap state — the failure-count table, the quarantine
    // set, and the on-chip spare store holding parked payloads — must
    // ride the snapshot: a run interrupted mid-campaign and resumed
    // matches the straight run bit for bit.  (A lost spare entry
    // would surface immediately: the parked slot's ciphertext stripe
    // is erased, so rereading it would count a spurious detection.)
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.02;
    cfg.oram.fault.seed = 23;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.oram.health.quarantineThreshold = 1;

    const RunMetrics m0 = runSystem(cfg, trace);
    // The campaign must actually populate the remap machinery, or
    // this proves nothing about its serialization.
    EXPECT_GT(m0.slotsQuarantined, 0u);
    EXPECT_GT(m0.quarantineEvacuations, 0u);

    TempDir dir;
    interruptAfter(cfg, trace, dir.path(), 157, 900);
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 157));
}

TEST_F(CkptResume, StopRequestWritesFinalSnapshotThenResumes)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics m0 = runSystem(cfg, trace);

    TempDir dir;
    ckpt::requestStop(); // What SIGINT/SIGTERM would set.
    interruptAfter(cfg, trace, dir.path(), 400, 0);
    ckpt::clearStopForTesting();
    expectSameMetrics(m0, resumeFrom(cfg, trace, dir.path(), 400));
}

TEST_F(CkptResume, ObservedResumeFromUnobservedSnapshot)
{
    // kSectionObs is optional: a snapshot written with obs off
    // resumes with metrics on, and the result is the same.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const SystemConfig cfg = smallSystem(Scheme::Shadow);
    TempDir dir, obsDir;
    interruptAfter(cfg, trace, dir.path(), 157, 450);
    SystemConfig observed = cfg;
    observed.obs.metrics = true;
    observed.obs.dir = obsDir.path();
    expectSameMetrics(runSystem(cfg, trace),
                      resumeFrom(observed, trace, dir.path(), 157));
}

TEST_F(CkptResume, RunnerAnswersCompletedPointFromDoneMarker)
{
    SystemConfig cfg = smallSystem(Scheme::Shadow);
    cfg.recordPerMiss = true;

    TempDir dir;
    ckpt::setDirectoryForTesting(dir.path().c_str());

    RunMetrics m0, m1;
    {
        ExperimentRunner runner(1);
        m0 = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    const std::uint64_t reusedBefore =
        ckpt::counters().pointsReused.load();
    {
        ExperimentRunner runner(1);
        m1 = runner.submit(cfg, "sjeng", kMisses, kSeed).get();
    }
    // The relaunch answered from the .done marker — same metrics,
    // no rerun — which also round-trips every RunMetrics field
    // through saveRunMetrics/loadRunMetrics.
    EXPECT_EQ(ckpt::counters().pointsReused.load(), reusedBefore + 1);
    expectSameMetrics(m0, m1);
}

TEST_F(CkptResume, FingerprintIgnoresCadenceButSeesSemantics)
{
    const SystemConfig base = smallSystem(Scheme::Shadow);

    SystemConfig cadence = base;
    cadence.checkpointInterval = 777;
    cadence.interruptAfterAccesses = 5;
    EXPECT_EQ(configFingerprint(base), configFingerprint(cadence));

    SystemConfig semantic = base;
    semantic.oram.evictionRate = 4;
    EXPECT_NE(configFingerprint(base), configFingerprint(semantic));

    SystemConfig shadow = base;
    shadow.shadow.driCounterBits = 4;
    EXPECT_NE(configFingerprint(base), configFingerprint(shadow));
}

namespace {

/** Bursty, shedding, fault-ridden service point: the snapshot must
 *  carry the arrival cursor, the admitted-but-unissued queue, the
 *  pressure latch and the in-flight retry state. */
svc::ServiceConfig
serviceResumeConfig()
{
    svc::ServiceConfig cfg = test::overloadService();
    cfg.oram.payloadEnabled = true;
    cfg.oram.fault.rate = 0.05;
    cfg.oram.fault.seed = 97;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    cfg.shadow.mode = ShadowMode::DynamicPartition;
    cfg.requests = 600;
    // Not fingerprinted; on so the SLO tuple is live in the snapshot.
    cfg.slo.latencyBound = 20'000;
    cfg.slo.windowRequests = 64;
    return cfg;
}

} // namespace

TEST_F(CkptResume, ServiceRunKilledMidStreamResumesBitIdentically)
{
    // The service snapshot (kSectionSvc and kSectionReqObs next to the
    // OramStack sections) must carry everything the scheduler is:
    // generator cursor, lookahead record, queue with per-request
    // retry state, pressure latch, stats, the latency sample and the
    // request observability — a run interrupted mid-overload and
    // resumed matches the straight run stat for stat.  Tiny snapshots
    // carry no kSectionPolicy, Shadow snapshots do.
    for (Scheme scheme : {Scheme::Tiny, Scheme::Shadow}) {
        SCOPED_TRACE(scheme == Scheme::Tiny ? "tiny" : "shadow");
        svc::ServiceConfig cfg = serviceResumeConfig();
        cfg.scheme = scheme;
        const svc::ServiceStats s0 = svc::runService(cfg);
        // The interruption point below lands mid-campaign: sheds,
        // backpressure and SLO windows must be live in the final
        // numbers or the snapshot never saw them in flight.
        EXPECT_GT(s0.requestsShed, 0u);
        EXPECT_GT(s0.backpressureEntries, 0u);
        EXPECT_GT(s0.oram.faultsInjected, 0u);
        EXPECT_GT(s0.sloWindows, 4u);

        TempDir dir;
        interruptService(cfg, dir.path(), 50, 250);
        {
            ckpt::CheckpointSession session(
                dir.path(), svc::serviceConfigFingerprint(cfg));
            auto latest = session.loadLatest();
            ASSERT_NE(latest, nullptr);
            EXPECT_EQ(latest->hasSection(ckpt::kSectionPolicy),
                      scheme == Scheme::Shadow);
        }
        // The resume clears the interrupt seam (it already fired);
        // the fingerprint ignores both cadence fields, so the session
        // still addresses the same snapshot files.
        expectSameServiceStats(s0, resumeService(cfg, dir.path(), 50));
    }
}

TEST_F(CkptResume, ServiceStopRequestWritesFinalSnapshotThenResumes)
{
    const svc::ServiceConfig cfg = serviceResumeConfig();
    const svc::ServiceStats s0 = svc::runService(cfg);

    TempDir dir;
    ckpt::requestStop();  // What SIGINT/SIGTERM would set.
    interruptService(cfg, dir.path(), 100, 0);
    ckpt::clearStopForTesting();
    expectSameServiceStats(s0, resumeService(cfg, dir.path(), 100));
}

TEST_F(CkptResume, ServiceObservedResumeFromUnobservedSnapshot)
{
    const svc::ServiceConfig cfg = serviceResumeConfig();
    TempDir dir, obsDir;
    interruptService(cfg, dir.path(), 50, 250);
    svc::ServiceConfig observed = cfg;
    observed.obs.metrics = true;
    observed.obs.dir = obsDir.path();
    expectSameServiceStats(svc::runService(cfg),
                           resumeService(observed, dir.path(), 50));
}

namespace {

/** Re-frame @p image without section @p dropped, keeping its
 *  sequence number, fingerprint and every other section's bytes. */
std::vector<std::uint8_t>
withoutSection(const std::vector<std::uint8_t> &image,
               std::uint32_t dropped)
{
    // Frame layout (ckpt/Snapshot.hh): magic, version u32, count u32,
    // seq u64, fingerprint u64, payload bytes u64, then sections.
    ckpt::Deserializer in(image.data(), image.size());
    in.skip(8 + 4);
    const std::uint32_t count = in.u32();
    const std::uint64_t seq = in.u64();
    const std::uint64_t fingerprint = in.u64();
    in.skip(8);
    ckpt::SnapshotWriter w;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t id = in.u32();
        std::vector<std::uint8_t> body(in.u64());
        in.bytes(body.data(), body.size());
        if (id != dropped)
            w.section(id).bytes(body.data(), body.size());
    }
    return w.finish(seq, fingerprint);
}

/** Interrupt @p run, strip kSectionPolicy from both generations,
 *  then expect the resume to reject them and commit nothing. */
template <typename Run>
void
expectPolicylessSnapshotRejected(std::uint64_t key, Run run)
{
    TempDir dir;
    {
        ckpt::CheckpointSession session(dir.path(), key);
        EXPECT_THROW(run(session), InterruptedError);
    }
    std::vector<std::uint8_t> images[2];
    for (unsigned slot = 0; slot < 2; ++slot) {
        const std::string path = slotFile(dir.path(), key, slot);
        images[slot] = withoutSection(ckpt::readFile(path),
                                      ckpt::kSectionPolicy);
        ckpt::writeFileAtomic(path, images[slot]);
    }
    ckpt::CheckpointSession session(dir.path(), key);
    EXPECT_THROW(run(session), CkptMismatchError);
    for (unsigned slot = 0; slot < 2; ++slot)
        EXPECT_EQ(ckpt::readFile(slotFile(dir.path(), key, slot)),
                  images[slot]);
}

} // namespace

TEST_F(CkptResume, MissingPolicySectionIsRejectedBeforeAnyStateMutates)
{
    // The OramStack fetches all of its sections before it loads any:
    // a Shadow snapshot without kSectionPolicy leaves the stack as it
    // was, byte for byte.
    const OramConfig oramCfg = smallSystem(Scheme::Shadow).oram;
    OramStack source(Scheme::Shadow, oramCfg);
    OramStack target(Scheme::Shadow, oramCfg);
    Cycles t = 0;
    for (Addr a = 0; a < 300; ++a)
        t = source.oram().access(a * 37, Op::Read, t + 100).completeAt;
    ckpt::SnapshotWriter image, before, after;
    source.save(image);
    target.save(before);
    EXPECT_THROW(target.restore(ckpt::SnapshotReader(withoutSection(
                     image.finish(1, 0), ckpt::kSectionPolicy))),
                 CkptMismatchError);
    target.save(after);
    EXPECT_EQ(before.finish(0, 0), after.finish(0, 0));

    // Both drivers restore through the stack.
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    SystemConfig sys = smallSystem(Scheme::Shadow);
    sys.checkpointInterval = 157;
    sys.interruptAfterAccesses = 450;
    expectPolicylessSnapshotRejected(
        configFingerprint(sys), [&](ckpt::CheckpointSession &session) {
            runSystem(sys, trace, &session);
        });
    svc::ServiceConfig service = serviceResumeConfig();
    service.checkpointInterval = 50;
    service.interruptAfterResolved = 250;
    expectPolicylessSnapshotRejected(
        svc::serviceConfigFingerprint(service),
        [&](ckpt::CheckpointSession &session) {
            svc::runService(service, &session);
        });
}

namespace {

/** Re-frame @p image with section @p id's body passed through @p edit,
 *  keeping its sequence number, fingerprint and every other section. */
template <typename Edit>
std::vector<std::uint8_t>
withSectionEdited(const std::vector<std::uint8_t> &image,
                  std::uint32_t id, Edit edit)
{
    ckpt::Deserializer in(image.data(), image.size());
    in.skip(8 + 4);
    const std::uint32_t count = in.u32();
    const std::uint64_t seq = in.u64();
    const std::uint64_t fingerprint = in.u64();
    in.skip(8);
    ckpt::SnapshotWriter w;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t sid = in.u32();
        std::vector<std::uint8_t> body(in.u64());
        in.bytes(body.data(), body.size());
        if (sid == id)
            edit(body);
        w.section(sid).bytes(body.data(), body.size());
    }
    return w.finish(seq, fingerprint);
}

/** Interrupt serviceResumeConfig() after 250 resolved requests with a
 *  snapshot every 50, leaving both generations under @p dir. */
std::uint64_t
interruptResumeConfig(const std::string &dir)
{
    const svc::ServiceConfig cfg = serviceResumeConfig();
    interruptService(cfg, dir, 50, 250);
    return svc::serviceConfigFingerprint(cfg);
}

} // namespace

TEST_F(CkptResume, ServiceSnapshotBytesArePinned)
{
    // The service snapshot (scheduler queue and retry state, pressure
    // latch, SLO windows, timelines, flight ring and the OramStack
    // sections with every ciphertext) may not move by a byte.  A
    // deadline tight enough to expire queued requests puts retries in
    // flight next to the watermarks, SLO windows and payload faults.
    svc::ServiceConfig cfg = serviceResumeConfig();
    cfg.deadline = 8'000;
    cfg.maxRetries = 2;
    TempDir dir;
    interruptService(cfg, dir.path(), 50, 250);
    const svc::ServiceStats s = resumeService(cfg, dir.path(), 50);
    EXPECT_GT(s.retries, 0u);
    EXPECT_GT(s.backpressureEntries, 0u);
    EXPECT_GT(s.sloWindows, 0u);
    EXPECT_GT(s.oram.faultsInjected, 0u);

    TempDir pinned;
    interruptService(cfg, pinned.path(), 50, 250);
    const std::vector<std::uint8_t> image = ckpt::readFile(newestGeneration(
        pinned.path(), svc::serviceConfigFingerprint(cfg)));
    EXPECT_EQ(ckpt::fnv1a(image.data(), image.size()),
              0x807581b8290fa32eULL);
}

TEST_F(CkptResume, ServiceRestoreRejectsTimelineCountMismatch)
{
    // The request-obs section must carry one timeline record per
    // queued request; a snapshot that disagrees is rejected input.
    TempDir dir;
    const std::uint64_t key = interruptResumeConfig(dir.path());
    for (unsigned slot = 0; slot < 2; ++slot) {
        const std::string path = slotFile(dir.path(), key, slot);
        ckpt::writeFileAtomic(
            path, withSectionEdited(ckpt::readFile(path),
                                    ckpt::kSectionReqObs,
                                    [](std::vector<std::uint8_t> &body) {
                                        ++body[0];  // Record count, LE.
                                    }));
    }
    EXPECT_THROW(resumeService(serviceResumeConfig(), dir.path(), 50),
                 CkptMismatchError);
}

TEST_F(CkptResume, ServiceRestoreRejectsQueueDeeperThanCapacity)
{
    // Resume into an admission queue too small for the snapshot's
    // queue (the session is keyed on the original point).
    TempDir dir;
    const std::uint64_t key = interruptResumeConfig(dir.path());
    {
        ckpt::CheckpointSession session(dir.path(), key);
        auto latest = session.loadLatest();
        ASSERT_NE(latest, nullptr);
        ASSERT_GE(latest->section(ckpt::kSectionReqObs).u64(), 2u);
    }
    svc::ServiceConfig small = serviceResumeConfig();
    small.queueCapacity = 1;
    small.queueHighWatermark = 0;
    small.queueLowWatermark = 0;
    ckpt::CheckpointSession session(dir.path(), key);
    EXPECT_THROW(svc::runService(small, &session), CkptMismatchError);
}

TEST_F(CkptResume, UnwritableCheckpointDirIsOneLineFatal)
{
    // Satellite: SB_CKPT_DIR pointing somewhere unusable must be a
    // nonzero exit with a diagnostic, not a silent no-checkpoint run.
    EXPECT_EXIT(
        {
            ckpt::setDirectoryForTesting("/dev/null/not-a-dir");
            ckpt::activeDirectory();
        },
        ::testing::ExitedWithCode(kFatalExitCode), "not writable");
}
