/** Shared helpers for whole-system tests. */

#ifndef SBORAM_TESTS_SIMTESTUTIL_HH
#define SBORAM_TESTS_SIMTESTUTIL_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/Checkpoint.hh"
#include "common/Errors.hh"
#include "sim/System.hh"

namespace sboram::test {

/** A 2^14-block, recursive-posmap system: seconds-scale runs. */
inline SystemConfig
smallSystem(Scheme scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.oram.dataBlocks = 1 << 14;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.onChipPosMapEntries = 1 << 10;
    cfg.oram.seed = 3;
    return cfg;
}

/** Every RunMetrics field agrees, doubles bit for bit. */
inline void
expectSameMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.dataAccessTime, b.dataAccessTime);
    EXPECT_EQ(a.driTime, b.driTime);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.dummyRequests, b.dummyRequests);
    EXPECT_EQ(a.stashHits, b.stashHits);
    EXPECT_EQ(a.shadowStashHits, b.shadowStashHits);
    EXPECT_EQ(a.shadowForwards, b.shadowForwards);
    EXPECT_EQ(a.pathReads, b.pathReads);
    EXPECT_EQ(a.shadowsWritten, b.shadowsWritten);
    EXPECT_EQ(a.onChipHitRate, b.onChipHitRate);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.stashPeakReal, b.stashPeakReal);
    EXPECT_EQ(a.stashOverflows, b.stashOverflows);
    EXPECT_EQ(a.finalPartitionLevel, b.finalPartitionLevel);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.faultsDetected, b.faultsDetected);
    EXPECT_EQ(a.faultsRecovered, b.faultsRecovered);
    EXPECT_EQ(a.faultsUnrecoverable, b.faultsUnrecoverable);
    EXPECT_EQ(a.slotsQuarantined, b.slotsQuarantined);
    EXPECT_EQ(a.quarantineEvacuations, b.quarantineEvacuations);
    EXPECT_EQ(a.degradedEntries, b.degradedEntries);
    EXPECT_EQ(a.degradedTicks, b.degradedTicks);
    EXPECT_EQ(a.emergencyEvictions, b.emergencyEvictions);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.replayedAccesses, b.replayedAccesses);
    EXPECT_EQ(a.missRetireTimes, b.missRetireTimes);
}

/**
 * Run @p cfg with a snapshot every @p interval accesses until the
 * interrupt seam fires after @p stopAt (0: on a stop request) and
 * the final snapshot is written, leaving both generations in @p dir.
 */
inline void
interruptAfter(SystemConfig cfg, const std::vector<LlcMissRecord> &trace,
               const std::string &dir, std::uint64_t interval,
               std::uint64_t stopAt)
{
    ckpt::CheckpointSession session(dir, configFingerprint(cfg));
    cfg.checkpointInterval = interval;
    cfg.interruptAfterAccesses = stopAt;
    EXPECT_THROW(runSystem(cfg, trace, &session), InterruptedError);
}

/** Resume @p cfg from the snapshots under @p dir and run it out. */
inline RunMetrics
resumeFrom(SystemConfig cfg, const std::vector<LlcMissRecord> &trace,
           const std::string &dir, std::uint64_t interval)
{
    ckpt::CheckpointSession session(dir, configFingerprint(cfg));
    cfg.checkpointInterval = interval;
    return runSystem(cfg, trace, &session);
}

} // namespace sboram::test

#endif // SBORAM_TESTS_SIMTESTUTIL_HH
