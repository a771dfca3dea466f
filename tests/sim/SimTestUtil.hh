/** Shared helpers for whole-system tests. */

#ifndef SBORAM_TESTS_SIMTESTUTIL_HH
#define SBORAM_TESTS_SIMTESTUTIL_HH

#include <gtest/gtest.h>

#include "sim/System.hh"

namespace sboram::test {

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

} // namespace sboram::test

#endif // SBORAM_TESTS_SIMTESTUTIL_HH
