/**
 * @file
 * End-to-end observability: a traced/metered run emits valid,
 * deterministic artifacts; the same point produces byte-identical
 * artifacts on a 1-thread and a multi-thread ExperimentRunner; and a
 * run of either driver interrupted into a checkpoint and resumed emits
 * the same metric rows as an uninterrupted one (none lost or doubled);
 * and the trace's control-event instants are the flight ring mapped
 * through the kind table, in order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "../common/TempDir.hh"
#include "../sim/SimTestUtil.hh"
#include "../svc/ServiceTestUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "obs/FlightRecorder.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
#include "obs/Trace.hh"
#include "sim/ExperimentRunner.hh"
#include "svc/Service.hh"

using namespace sboram;
using sboram::test::TempDir;

namespace {

constexpr std::uint64_t kMisses = 1200;
constexpr std::uint64_t kSeed = 99;

std::string
readFile(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = ckpt::readFile(path);
    return std::string(bytes.begin(), bytes.end());
}

SystemConfig
observedSystem(Scheme scheme, const std::string &dir,
               const std::string &label)
{
    SystemConfig cfg = test::smallSystem(scheme);
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    cfg.obs.interval = 200;
    cfg.obs.dir = dir;
    cfg.obs.label = label;
    return cfg;
}

svc::ServiceConfig
observedService(const std::string &dir, const std::string &label)
{
    svc::ServiceConfig cfg = test::smallService();
    cfg.obs.metrics = true;
    cfg.obs.interval = 50;
    cfg.obs.dir = dir;
    cfg.obs.label = label;
    return cfg;
}

/** Count occurrences of @p token in @p text. */
std::size_t
countToken(const std::string &text, const std::string &token)
{
    std::size_t count = 0, pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
        ++count;
        pos += token.size();
    }
    return count;
}

/**
 * Drop the checkpoint-snapshot column from a metrics JSONL document.
 * Interrupt+resume legitimately commits more snapshots than an
 * uninterrupted run; every other column must match byte-for-byte.
 */
std::string
stripCkptColumn(std::string text)
{
    const std::string key = "\"" + std::string(obs::kMetricCheckpoints) +
                            "\": ";
    std::size_t pos;
    while ((pos = text.find(key)) != std::string::npos) {
        std::size_t end = pos + key.size();
        while (end < text.size() && text[end] != ',' &&
               text[end] != '}')
            ++end;
        if (end < text.size() && text[end] == ',')
            ++end;  // Swallow the separator too.
        text.erase(pos, end - pos);
    }
    return text;
}

/** The snapshot count in the last row of a metrics JSONL document. */
std::uint64_t
lastCkptCount(const std::string &text)
{
    const std::string key = "\"" + std::string(obs::kMetricCheckpoints) +
                            "\": ";
    const std::size_t pos = text.rfind(key);
    return pos == std::string::npos
               ? 0
               : std::stoull(text.substr(pos + key.size()));
}

/** One trace instant: (track, name, cycle). */
using Instant = std::tuple<unsigned, std::string, std::uint64_t>;

/** The kind-table row whose ring name is @p name, or null. */
const obs::FlightKindInfo *
kindInfoByName(const std::string &name)
{
    for (std::uint8_t k = 0;
         k <= static_cast<std::uint8_t>(obs::FlightKind::Corruption); ++k) {
        const obs::FlightKindInfo &info =
            obs::flightKindInfo(static_cast<obs::FlightKind>(k));
        if (name == info.name)
            return &info;
    }
    return nullptr;
}

/** The value after `"key": ` in @p line (a number or a quoted name). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    at += tag.size();
    if (line[at] == '"') {
        const std::size_t end = line.find('"', at + 1);
        return line.substr(at + 1, end - at - 1);
    }
    std::size_t end = at;
    while (end < line.size() && line[end] >= '0' && line[end] <= '9')
        ++end;
    return line.substr(at, end - at);
}

/** A flight dump's retained events mapped through the kind table:
 *  the instants the trace must carry for them, oldest first. */
std::vector<Instant>
ringInstants(const std::string &dump)
{
    std::vector<Instant> out;
    for (std::size_t at = dump.find("{\"cycle\": ");
         at != std::string::npos;
         at = dump.find("{\"cycle\": ", at + 1)) {
        const std::string ev = dump.substr(at, dump.find('}', at) - at);
        const obs::FlightKindInfo *info = kindInfoByName(field(ev, "kind"));
        EXPECT_NE(info, nullptr) << ev;
        if (info != nullptr && info->instant != nullptr)
            out.emplace_back(info->track, info->instant,
                             std::stoull(field(ev, "cycle")));
    }
    return out;
}

/** The trace's instants that some FlightKind renders as. */
std::vector<Instant>
traceControlInstants(const std::string &doc)
{
    std::vector<Instant> out;
    std::size_t at = 0;
    while ((at = doc.find("{\"ph\": \"i\"", at)) != std::string::npos) {
        const std::string ev = doc.substr(at, doc.find('}', at) - at);
        ++at;
        const std::string name = field(ev, "name");
        for (std::uint8_t k = 0;
             k <= static_cast<std::uint8_t>(obs::FlightKind::Corruption);
             ++k) {
            const char *instant =
                obs::flightKindInfo(static_cast<obs::FlightKind>(k))
                    .instant;
            if (instant != nullptr && name == instant) {
                out.emplace_back(
                    static_cast<unsigned>(std::stoul(field(ev, "tid"))),
                    name, std::stoull(field(ev, "ts")));
                break;
            }
        }
    }
    return out;
}

/** The last @p n elements of @p v (all of it when shorter). */
std::vector<Instant>
tail(const std::vector<Instant> &v, std::size_t n)
{
    return {v.end() - static_cast<std::ptrdiff_t>(std::min(n, v.size())),
            v.end()};
}

} // namespace

TEST(Observer, TracedRunEmitsValidBalancedArtifacts)
{
    TempDir dir;
    const SystemConfig cfg =
        observedSystem(Scheme::Shadow, dir.path(), "traced");
    const auto trace = makeTrace("mcf", kMisses, kSeed);
    const RunMetrics m = runSystem(cfg, trace);
    EXPECT_GT(m.requests, 0u);

    const std::string traceDoc =
        readFile(dir.path() + "/trace-traced.json");
    const obs::JsonVerdict tv = obs::validateJson(traceDoc);
    EXPECT_TRUE(tv.ok) << tv.error << " at byte " << tv.errorOffset;
    // Every begun span was ended (no orphaned B events).
    EXPECT_EQ(countToken(traceDoc, "\"ph\": \"B\""),
              countToken(traceDoc, "\"ph\": \"E\""));
    EXPECT_GT(countToken(traceDoc, "\"name\": \"access\""), 0u);
    EXPECT_GT(countToken(traceDoc, "\"name\": \"path_read\""), 0u);

    const std::string metricsDoc =
        readFile(dir.path() + "/metrics-traced.jsonl");
    const obs::JsonVerdict mv = obs::validateJsonl(metricsDoc);
    EXPECT_TRUE(mv.ok) << mv.error << " at byte " << mv.errorOffset;
    // The time-series carries the paper's policy signals.
    EXPECT_NE(metricsDoc.find(obs::kMetricPartitionLevel),
              std::string::npos);
    EXPECT_NE(metricsDoc.find(obs::kMetricDriCounter),
              std::string::npos);
    EXPECT_NE(metricsDoc.find(obs::kMetricStashReal),
              std::string::npos);
}

TEST(Observer, ObservedRunMatchesUnobservedMetrics)
{
    TempDir dir;
    const SystemConfig observed =
        observedSystem(Scheme::Shadow, dir.path(), "obs");
    SystemConfig plain = observed;
    plain.obs = obs::ObsConfig{};

    const auto trace = makeTrace("sjeng", kMisses, kSeed);
    test::expectSameMetrics(runSystem(observed, trace),
                            runSystem(plain, trace));
}

TEST(Observer, ArtifactsAreByteIdenticalAcrossThreadCounts)
{
    TempDir dirSeq, dirPar;
    const SystemConfig seqCfg =
        observedSystem(Scheme::Shadow, dirSeq.path(), "point");
    const SystemConfig parCfg =
        observedSystem(Scheme::Shadow, dirPar.path(), "point");

    ExperimentRunner sequential(1);
    ExperimentRunner parallel(3);
    // Uninstrumented siblings keep the pool busy around the observed
    // point, so worker scheduling genuinely varies.
    SystemConfig plain = seqCfg;
    plain.obs = obs::ObsConfig{};

    sequential.submit(seqCfg, "mcf", kMisses, kSeed).get();
    auto f1 = parallel.submit(plain, "sjeng", kMisses, kSeed);
    auto f2 = parallel.submit(parCfg, "mcf", kMisses, kSeed);
    auto f3 = parallel.submit(plain, "hmmer", kMisses, kSeed);
    f1.get();
    f2.get();
    f3.get();

    EXPECT_EQ(readFile(dirSeq.path() + "/metrics-point.jsonl"),
              readFile(dirPar.path() + "/metrics-point.jsonl"));
    EXPECT_EQ(readFile(dirSeq.path() + "/trace-point.json"),
              readFile(dirPar.path() + "/trace-point.json"));
}

TEST(Observer, MetricsSurviveCheckpointRestoreWithoutDoubleCounting)
{
    const auto trace = makeTrace("mcf", kMisses, kSeed);

    TempDir obsBase, obsResumed, ckptDir;
    ckpt::clearStopForTesting();

    // Uninterrupted reference run.
    const SystemConfig base =
        observedSystem(Scheme::Shadow, obsBase.path(), "full");
    runSystem(base, trace);

    // Interrupt at 450 (snapshot carries the sampler rows), resume to
    // completion.  The interrupted attempt never closes, so only the
    // resumed attempt writes artifacts.
    const SystemConfig cfg =
        observedSystem(Scheme::Shadow, obsResumed.path(), "resumed");
    test::interruptAfter(cfg, trace, ckptDir.path(), 157, 450);
    test::resumeFrom(cfg, trace, ckptDir.path(), 157);

    const std::string full =
        readFile(obsBase.path() + "/metrics-full.jsonl");
    const std::string res =
        readFile(obsResumed.path() + "/metrics-resumed.jsonl");
    EXPECT_TRUE(obs::validateJsonl(res).ok);
    // Identical rows modulo the snapshot counter (the resumed run
    // commits extra checkpoints by construction).
    EXPECT_EQ(stripCkptColumn(full), stripCkptColumn(res));
}

TEST(Observer, ServiceMetricsSurviveCheckpointRestoreWithoutDoubleCounting)
{
    TempDir obsBase, obsResumed, ckptDir;
    ckpt::clearStopForTesting();

    svc::runService(observedService(obsBase.path(), "full"), nullptr);

    const svc::ServiceConfig cfg =
        observedService(obsResumed.path(), "resumed");
    test::interruptService(cfg, ckptDir.path(), 97, 250);
    test::resumeService(cfg, ckptDir.path(), 97);

    const std::string full =
        readFile(obsBase.path() + "/metrics-full.jsonl");
    const std::string res =
        readFile(obsResumed.path() + "/metrics-resumed.jsonl");
    EXPECT_TRUE(obs::validateJsonl(res).ok);
    EXPECT_EQ(stripCkptColumn(full), stripCkptColumn(res));
    // Service runs count their snapshots like System runs do.
    EXPECT_GT(lastCkptCount(res), 0u);
}

TEST(Observer, ServiceTraceInstantsAreTheFlightRingProjected)
{
    // One record() per control event feeds the ring and the trace, so
    // the service track's control instants are the retained ring
    // events mapped through the kind table, in the same order — also
    // where a shed closes a burning SLO window (shed first, then the
    // slo_burn it caused).
    TempDir dir;
    svc::ServiceConfig cfg = test::overloadService();
    cfg.slo.latencyBound = 20'000;
    cfg.slo.windowRequests = 64;
    cfg.obs.trace = true;
    cfg.obs.dir = dir.path();
    cfg.obs.label = "projection";
    svc::ServicePipeline pipeline(cfg);
    const svc::ServiceStats s = pipeline.run();
    EXPECT_GT(s.backpressureEntries, 0u);
    EXPECT_GT(s.sloBreaches, 0u);

    const std::vector<Instant> ring =
        ringInstants(pipeline.artifacts().flightJson);
    const std::vector<Instant> traced =
        traceControlInstants(readFile(dir.path() + "/trace-projection.json"));
    bool shedClosesBurn = false;
    for (std::size_t i = 0; i + 1 < ring.size(); ++i)
        shedClosesBurn |=
            std::get<1>(ring[i]).rfind("shed_", 0) == 0 &&
            std::get<1>(ring[i + 1]) == "slo_burn" &&
            std::get<2>(ring[i]) == std::get<2>(ring[i + 1]);
    EXPECT_TRUE(shedClosesBurn);
    ASSERT_GE(traced.size(), ring.size());
    EXPECT_EQ(tail(traced, ring.size()), ring);
}

TEST(Observer, SystemTraceInstantsAreTheFlightRingProjected)
{
    // Degraded transitions (TinyOram) and auto-rollbacks (the tier-3
    // loop) reach the trace through the ring's record() too.  A
    // rollback restores the ring to its snapshot, while the trace
    // keeps what the abandoned attempt emitted: so the ring is an
    // ordered subsequence of the trace, and from the last rollback on
    // the two are equal.
    TempDir obsDir, ckptDir;
    ckpt::clearStopForTesting();
    obs::resetFlightStateForTesting();
    // chaos_storm's congest point (degraded latch inside the stash
    // occupancy swing) at its storm-level fault rate.
    SystemConfig cfg;
    cfg.scheme = Scheme::Tiny;
    cfg.oram.dataBlocks = std::uint64_t(1) << 12;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.payloadEnabled = true;
    cfg.oram.stashCapacity = 200;
    cfg.oram.fault.rate = 3e-3;
    cfg.oram.fault.seed = 7;
    cfg.oram.fault.onUnrecoverable = UnrecoverablePolicy::Throw;
    cfg.oram.health.quarantineThreshold = 2;
    cfg.oram.health.stashHighWatermark = 4;
    cfg.oram.health.stashLowWatermark = 3;
    cfg.maxAutoRollbacks = 12;
    cfg.checkpointInterval = 250;
    cfg.obs.trace = true;
    cfg.obs.dir = obsDir.path();
    cfg.obs.label = "ladder";
    ckpt::CheckpointSession session(ckptDir.path(),
                                    configFingerprint(cfg));
    const RunMetrics m =
        runSystem(cfg, makeTrace("mcf", kMisses, kSeed), &session);
    EXPECT_GE(m.rollbacks, 1u);
    EXPECT_GT(m.degradedEntries, 0u);

    std::string dump;
    const std::string label =
        obs::flightLabel("sys", configFingerprint(cfg));
    for (const auto &kv : obs::flightDumps())
        if (kv.first.rfind(label, 0) == 0)
            dump = kv.second;
    obs::resetFlightStateForTesting();
    const std::vector<Instant> ring = ringInstants(dump);
    const std::vector<Instant> traced =
        traceControlInstants(readFile(obsDir.path() + "/trace-ladder.json"));

    std::size_t lastRollback = ring.size();
    bool degraded = false;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        if (std::get<1>(ring[i]) == "auto_rollback")
            lastRollback = i;
        degraded |= std::get<1>(ring[i]) == "degraded_enter";
    }
    ASSERT_LT(lastRollback, ring.size());
    EXPECT_TRUE(degraded);
    EXPECT_EQ(tail(traced, ring.size() - lastRollback),
              std::vector<Instant>(ring.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           lastRollback),
                                   ring.end()));
    std::size_t matched = 0;
    for (const Instant &t : traced)
        if (matched < ring.size() && t == ring[matched])
            ++matched;
    EXPECT_EQ(matched, ring.size());
}
