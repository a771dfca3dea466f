/**
 * @file
 * End-to-end observability: a traced/metered run emits valid,
 * deterministic artifacts; the same point produces byte-identical
 * artifacts on a 1-thread and a multi-thread ExperimentRunner; and a
 * run of either driver interrupted into a checkpoint and resumed emits
 * the same metric rows as an uninterrupted one (none lost or doubled).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../common/TempDir.hh"
#include "../sim/SimTestUtil.hh"
#include "../svc/ServiceTestUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
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
