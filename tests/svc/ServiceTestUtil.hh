/** Shared helpers for service-pipeline tests. */

#ifndef SBORAM_TESTS_SERVICETESTUTIL_HH
#define SBORAM_TESTS_SERVICETESTUTIL_HH

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "svc/Service.hh"

namespace sboram::test {

/** Small functional service point: on-chip posmap, hot Zipf space. */
inline svc::ServiceConfig
smallService()
{
    svc::ServiceConfig cfg;
    cfg.oram.dataBlocks = 1 << 10;
    cfg.oram.posMapMode = PosMapMode::OnChip;
    cfg.oram.stashCapacity = 200;
    cfg.oram.seed = 7;
    cfg.shadow.mode = ShadowMode::HdOnly;
    cfg.arrivals.clients = 1000;
    cfg.arrivals.addressBlocks = 256;
    cfg.arrivals.meanGapCycles = 2500.0;
    cfg.arrivals.seed = 21;
    cfg.requests = 500;
    cfg.queueCapacity = 32;
    cfg.queueHighWatermark = 24;
    cfg.queueLowWatermark = 8;
    cfg.deadline = 120'000;
    return cfg;
}

/** Bursty arrivals well past the drain rate: the overload drill. */
inline svc::ServiceConfig
overloadService()
{
    svc::ServiceConfig cfg = smallService();
    cfg.arrivals.kind = ArrivalKind::Bursty;
    cfg.arrivals.meanGapCycles = 400.0;
    cfg.arrivals.burstFactor = 6.0;
    cfg.arrivals.burstOnCycles = 60'000;
    cfg.arrivals.burstOffCycles = 120'000;
    cfg.deadline = 30'000;
    cfg.maxRetries = 1;
    return cfg;
}

/** Every stat a service run reports — scheduler counters, latency,
 *  stage attribution, SLO tuple and controller counters — agrees. */
inline void
expectSameServiceStats(const svc::ServiceStats &a,
                       const svc::ServiceStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dedupJoins, b.dedupJoins);
    EXPECT_EQ(a.shadowEarlyCompletions, b.shadowEarlyCompletions);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.backpressureEntries, b.backpressureEntries);
    EXPECT_EQ(a.backpressureExits, b.backpressureExits);
    EXPECT_EQ(a.issuedAccesses, b.issuedAccesses);
    EXPECT_EQ(a.finishTime, b.finishTime);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.latencyP999, b.latencyP999);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    for (std::size_t i = 0; i < a.stages.size(); ++i) {
        const obs::StageCut &x = a.stages[i];
        const obs::StageCut &y = b.stages[i];
        EXPECT_EQ(std::tie(x.count, x.p50, x.p99, x.p999, x.max, x.total),
                  std::tie(y.count, y.p50, y.p99, y.p999, y.max, y.total))
            << "stage " << i;
    }
    EXPECT_EQ(a.stageBalanceViolations, b.stageBalanceViolations);
    EXPECT_EQ(a.sloWindows, b.sloWindows);
    EXPECT_EQ(a.sloBreaches, b.sloBreaches);
    EXPECT_EQ(a.sloWorstBurnMilli, b.sloWorstBurnMilli);
    EXPECT_EQ(a.oram.pathReads, b.oram.pathReads);
    EXPECT_EQ(a.oram.pathWrites, b.oram.pathWrites);
    EXPECT_EQ(a.oram.shadowForwards, b.oram.shadowForwards);
    EXPECT_EQ(a.oram.shadowsWritten, b.oram.shadowsWritten);
    EXPECT_EQ(a.oram.faultsInjected, b.oram.faultsInjected);
    EXPECT_EQ(a.oram.faultsDetected, b.oram.faultsDetected);
    EXPECT_EQ(a.oram.faultsRecovered, b.oram.faultsRecovered);
    EXPECT_EQ(a.oram.faultsUnrecoverable, b.oram.faultsUnrecoverable);
}

/**
 * Run @p cfg with a snapshot every @p interval resolved requests
 * until the interrupt seam fires after @p stopAt (0: on a stop
 * request), leaving both generations under @p dir.
 */
inline void
interruptService(svc::ServiceConfig cfg, const std::string &dir,
                 std::uint64_t interval, std::uint64_t stopAt)
{
    ckpt::CheckpointSession session(dir,
                                    svc::serviceConfigFingerprint(cfg));
    cfg.checkpointInterval = interval;
    cfg.interruptAfterResolved = stopAt;
    EXPECT_THROW(svc::runService(cfg, &session), InterruptedError);
}

/** Resume @p cfg from the snapshots under @p dir and run it out. */
inline svc::ServiceStats
resumeService(svc::ServiceConfig cfg, const std::string &dir,
              std::uint64_t interval)
{
    ckpt::CheckpointSession session(dir,
                                    svc::serviceConfigFingerprint(cfg));
    cfg.checkpointInterval = interval;
    return svc::runService(cfg, &session);
}

} // namespace sboram::test

#endif // SBORAM_TESTS_SERVICETESTUTIL_HH
