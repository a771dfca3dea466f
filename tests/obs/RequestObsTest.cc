/**
 * @file
 * Request-level observability (DESIGN.md §13), tested bottom-up:
 * log2 binning is monotone with exact bounds, the timeline pool
 * recycles deterministically, stage totals balance against measured
 * latency, exemplar selection is insertion-order independent, the SLO
 * monitor's burn-rate arithmetic matches hand-computed windows, and —
 * the end-to-end contracts — a pipeline run reproduces its exemplar
 * and flight artifacts byte-for-byte across repeat runs and across
 * kill-and-resume.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../common/TempDir.hh"
#include "../svc/ServiceTestUtil.hh"
#include "ckpt/Checkpoint.hh"
#include "ckpt/Serde.hh"
#include "common/Errors.hh"
#include "crypto/Prf.hh"
#include "obs/Json.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"
#include "obs/RequestTrace.hh"
#include "obs/Slo.hh"
#include "svc/Service.hh"

using namespace sboram;
using sboram::test::TempDir;
using namespace sboram::obs;

namespace {

/** Overloaded bursty point: retries, backoff, dedup, sheds and
 *  backpressure all fire, so every stage gets samples. */
svc::ServiceConfig
obsServiceConfig()
{
    svc::ServiceConfig cfg = test::overloadService();
    cfg.arrivals.zipfAlpha = 1.0;
    cfg.arrivals.writeFraction = 0.2;
    cfg.arrivals.meanGapCycles = 1800.0;
    cfg.requests = 600;
    // Tight deadline + a generous retry ladder: requests that miss
    // during a burst back off repeatedly and complete in the off
    // phase, so the retry-backoff stage gets real samples; the
    // off-phase lull keeps duplication alive for shadow forwards.
    cfg.deadline = 6'000;
    cfg.maxRetries = 4;
    cfg.retryBackoffCycles = 2'000;
    cfg.slo.latencyBound = cfg.deadline;
    cfg.slo.windowRequests = 64;
    return cfg;
}

} // namespace

// --- log2 binning -----------------------------------------------------

TEST(Log2Bins, MonotoneWithExactBounds)
{
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 100'000; v += 7) {
        const std::size_t bin =
            HistogramSink::log2BinOf(v, kDefaultLog2Bins);
        EXPECT_GE(bin, prev) << "bin order broke at v=" << v;
        prev = bin;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        HistogramSink::log2BinBounds(bin, lo, hi);
        EXPECT_LE(lo, v);
        EXPECT_GT(hi, v) << "bounds exclude v=" << v;
    }
}

TEST(Log2Bins, StateRoundTripsThroughSerde)
{
    HistogramSink h(kDefaultLog2Bins);
    h.sample(3.0);
    h.sample(1000.0);
    h.sample(1e9);
    ckpt::Serializer out;
    h.saveState(out);

    HistogramSink back(1);  // Scratch; the stream resizes it.
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_EQ(back.samples(), h.samples());
    EXPECT_EQ(back.counts(), h.counts());
}

// --- timeline pool and record -----------------------------------------

TEST(TimelinePool, RecyclesLowestIndexFirst)
{
    TimelinePool pool(4);
    EXPECT_EQ(pool.freeCount(), 4u);
    const std::uint32_t a = pool.acquire();
    const std::uint32_t b = pool.acquire();
    EXPECT_NE(a, b);
    pool.release(b);
    pool.release(a);
    // Deterministic recycling: the same acquire/release sequence must
    // yield the same slot assignment on every run (resume re-acquires
    // in queue order and depends on this).
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_EQ(pool.acquire(), b);
    EXPECT_EQ(pool.freeCount(), 2u);
}

TEST(TimelineRecord, StageTotalsBalanceAndTruncationIsCounted)
{
    TimelineRecord rec;
    rec.reset(7, 3, 42, 100);
    // Wait [100,150), backoff [150,180), access [180,200).
    rec.stage(kStageIdQueueWait, 100, 150);
    rec.stage(kStageIdRetryBackoff, 150, 180);
    rec.stage(kStageIdPathAccess, 180, 200);
    rec.stage(kStageIdDedupJoin, 200, 200);  // Zero-length: dropped.
    EXPECT_EQ(rec.totalAll(), 100u);
    EXPECT_EQ(rec.total(kStageIdQueueWait), 50u);
    EXPECT_EQ(rec.total(kStageIdRetryBackoff), 30u);
    EXPECT_EQ(rec.segCount(), 3u);
    EXPECT_EQ(rec.truncated(), 0u);

    // Overflow the segment list: totals stay exact, detail truncates.
    for (int i = 0; i < 20; ++i)
        rec.stage(kStageIdQueueWait, 1000 + i * 2, 1000 + i * 2 + 1);
    EXPECT_EQ(rec.segCount(), TimelineRecord::kMaxSegs);
    EXPECT_GT(rec.truncated(), 0u);
    EXPECT_EQ(rec.totalAll(), 120u);
}

// --- exemplar reservoir -----------------------------------------------

namespace {

/** A serialized TimelineRecord header claiming @p segs segments. */
ckpt::Serializer
timelineHeader(std::uint64_t segs)
{
    ckpt::Serializer out;
    for (int i = 0; i < 5; ++i)
        out.u64(0);  // seq, client, addr, arrival, openStart.
    out.u8(0);       // inBackoff.
    out.u32(0);      // truncated.
    out.u64(segs);
    return out;
}

} // namespace

TEST(TimelineRecord, LoadRejectsMoreSegmentsThanItHolds)
{
    // Snapshot input: a segment count past kMaxSegs is rejected, not
    // written past the fixed segment array.
    const ckpt::Serializer out = timelineHeader(TimelineRecord::kMaxSegs + 1);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    TimelineRecord rec;
    EXPECT_THROW(rec.loadState(in), CkptMismatchError);
}

TEST(TimelineRecord, LoadRejectsAnUnknownStageId)
{
    // A stage id indexes kStageNames when the exemplar renders.
    ckpt::Serializer out = timelineHeader(1);
    out.u64(10);  // start
    out.u64(20);  // end
    out.u8(kStageIdCount);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    TimelineRecord rec;
    EXPECT_THROW(rec.loadState(in), CkptMismatchError);
}

TEST(ExemplarReservoir, SelectionIsInsertionOrderIndependent)
{
    const PrfKey key{0x1234, 0x5678};
    ExemplarReservoir fwd(key, 3, kDefaultLog2Bins);
    ExemplarReservoir rev(key, 3, kDefaultLog2Bins);

    std::vector<TimelineRecord> recs(40);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].reset(i, i % 5, i * 3, i * 100);
        recs[i].stage(kStageIdQueueWait, i * 100, i * 100 + 50 + i);
    }
    for (std::size_t i = 0; i < recs.size(); ++i)
        fwd.offer(recs[i], 50 + i, false, 0);
    for (std::size_t i = recs.size(); i-- > 0;)
        rev.offer(recs[i], 50 + i, false, 0);

    EXPECT_EQ(fwd.size(), rev.size());
    EXPECT_EQ(fwd.renderJsonl(), rev.renderJsonl());
    const JsonVerdict v = validateJsonl(fwd.renderJsonl());
    EXPECT_TRUE(v.ok) << v.error;
}

TEST(ExemplarReservoir, SerdeRoundTripPreservesTheKeptSet)
{
    const PrfKey key{0x1234, 0x5678};
    ExemplarReservoir res(key, 2, kDefaultLog2Bins);
    std::vector<TimelineRecord> recs(10);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        recs[i].reset(i, i, i, 0);
        recs[i].stage(kStageIdPathAccess, 0, 100 + i * 37);
        res.offer(recs[i], 100 + i * 37, i % 2 == 0, 1);
    }
    ckpt::Serializer out;
    res.saveState(out);
    ExemplarReservoir back(key, 2, kDefaultLog2Bins);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_EQ(back.renderJsonl(), res.renderJsonl());
}

// --- SLO monitor ------------------------------------------------------

TEST(SloMonitor, GoldenWindowBurnRates)
{
    // bound 100, 99.0% objective -> 10-permille bad budget, window 10.
    SloConfig cfg;
    cfg.latencyBound = 100;
    cfg.goodPermille = 990;
    cfg.windowRequests = 10;
    cfg.burnMilliThreshold = 2000;
    SloMonitor slo(cfg);
    ASSERT_TRUE(slo.enabled());
    EXPECT_TRUE(slo.isGood(100));
    EXPECT_FALSE(slo.isGood(101));

    // Window 1: all good.  Burn 0 — closes without a breach.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.windows(), 1u);
    EXPECT_EQ(slo.breaches(), 0u);

    // Window 2: one bad in ten = 100% bad-rate over a 1% budget
    // consumed at 10x the sustainable rate -> burn 10000 milli.
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.onResolved(false), 10000);
    EXPECT_EQ(slo.windows(), 2u);
    EXPECT_EQ(slo.breaches(), 1u);
    EXPECT_EQ(slo.worstBurnMilli(), 10000u);

    // Trailing partial window: 4 good + 1 bad = burn 20000.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(slo.onResolved(true), -1);
    EXPECT_EQ(slo.onResolved(false), -1);  // Window not full yet.
    EXPECT_EQ(slo.flush(), 20000);
    EXPECT_EQ(slo.windows(), 3u);
    EXPECT_EQ(slo.breaches(), 2u);
    EXPECT_EQ(slo.worstBurnMilli(), 20000u);
}

TEST(SloMonitor, DisabledAndSerde)
{
    SloConfig off;  // latencyBound 0 = no objective.
    SloMonitor idle(off);
    EXPECT_FALSE(idle.enabled());

    SloConfig cfg;
    cfg.latencyBound = 50;
    cfg.windowRequests = 4;
    SloMonitor slo(cfg);
    slo.onResolved(true);
    slo.onResolved(false);
    ckpt::Serializer out;
    slo.saveState(out);
    SloMonitor back(cfg);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    back.loadState(in);
    EXPECT_EQ(back.flush(), slo.flush());
    EXPECT_EQ(back.windows(), slo.windows());
    EXPECT_EQ(back.breaches(), slo.breaches());
}

// --- end-to-end through the pipeline ----------------------------------

namespace {

/** Run one pipeline to completion: its stats and its artifacts. */
std::pair<svc::ServiceStats, svc::ServiceArtifacts>
runWithArtifacts(const svc::ServiceConfig &cfg,
                 ckpt::CheckpointSession *session = nullptr)
{
    svc::ServicePipeline pipeline(cfg);
    svc::ServiceStats stats = pipeline.run(session);
    return {stats, pipeline.artifacts()};
}

} // namespace

TEST(RequestObs, PipelineArtifactsAreReproducible)
{
    const svc::ServiceConfig cfg = obsServiceConfig();
    const auto [a, aArt] = runWithArtifacts(cfg);
    const auto [b, bArt] = runWithArtifacts(cfg);

    EXPECT_EQ(a.stageBalanceViolations, 0u);
    EXPECT_EQ(b.stageBalanceViolations, 0u);
    EXPECT_EQ(aArt.exemplarsJsonl, bArt.exemplarsJsonl);
    EXPECT_EQ(aArt.flightJson, bArt.flightJson);
    test::expectSameServiceStats(a, b);

    // The overload point exercises every stage but dedup-join's
    // backoff corner; the big four must have samples.
    EXPECT_GT(a.stages[kStageIdQueueWait].count, 0u);
    EXPECT_GT(a.stages[kStageIdRetryBackoff].count, 0u);
    EXPECT_GT(a.stages[kStageIdPathAccess].count, 0u);
    EXPECT_GT(a.stages[kStageIdShadowForward].count, 0u);

    // SLO: the tight deadline under burst overload must burn budget.
    EXPECT_GT(a.sloWindows, 0u);

    // Artifacts parse under the strict validator.
    EXPECT_TRUE(validateJsonl(aArt.exemplarsJsonl).ok);
    EXPECT_TRUE(validateJson(aArt.flightJson).ok);
    EXPECT_NE(aArt.flightJson.find("\"kind\": \"shed_admission\""),
              std::string::npos);
}

TEST(RequestObs, KillAndResumeReproducesObsArtifacts)
{
    const svc::ServiceConfig cfg = obsServiceConfig();
    const auto [s0, art0] = runWithArtifacts(cfg);
    ASSERT_GT(s0.requestsShed, 0u);

    TempDir dir;
    test::interruptService(cfg, dir.path(), 50, 250);
    svc::ServiceConfig resumed = cfg;
    resumed.checkpointInterval = 50;
    ckpt::CheckpointSession session(dir.path(),
                                    svc::serviceConfigFingerprint(cfg));
    const auto [s1, art1] = runWithArtifacts(resumed, &session);

    // The kSectionReqObs section must carry the sampler, accumulator,
    // SLO and ring across the kill: artifacts match stat for stat.
    EXPECT_EQ(art0.exemplarsJsonl, art1.exemplarsJsonl);
    EXPECT_EQ(art0.flightJson, art1.flightJson);
    test::expectSameServiceStats(s0, s1);
}
