/** Shared helpers for ORAM unit/integration tests. */

#ifndef SBORAM_TESTS_ORAMTESTUTIL_HH
#define SBORAM_TESTS_ORAMTESTUTIL_HH

#include <vector>

#include "sim/OramStack.hh"

namespace sboram::test {

/** Small functional configuration: payloads on, on-chip posmap. */
inline OramConfig
smallConfig()
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 10;
    cfg.posMapMode = PosMapMode::OnChip;
    cfg.payloadEnabled = true;
    cfg.stashCapacity = 200;
    cfg.seed = 7;
    return cfg;
}

/** Small configuration with forced position-map recursion. */
inline OramConfig
recursiveConfig()
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 12;
    cfg.posMapMode = PosMapMode::Recursive;
    cfg.onChipPosMapEntries = 64;
    cfg.payloadEnabled = true;
    cfg.stashCapacity = 200;
    cfg.seed = 11;
    return cfg;
}

/** Read @p addrs in order; stash hits do not advance the clock. */
inline void
drive(TinyOram &oram, const std::vector<Addr> &addrs)
{
    Cycles t = 0;
    for (Addr a : addrs) {
        if (oram.wouldHitStash(a, Op::Read)) {
            oram.access(a, Op::Read, t + 100);
            continue;
        }
        t = oram.access(a, Op::Read, t + 100).completeAt;
    }
}

} // namespace sboram::test

#endif // SBORAM_TESTS_ORAMTESTUTIL_HH
