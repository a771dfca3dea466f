/**
 * @file
 * Obliviousness under fault injection: recovering a corrupted block
 * from its shadow copy must not perturb the external trace.
 *
 * The recovery path (TinyOram::recoverRealPayload) consults the
 * stash, the eviction buffer and shallower path slots — all data the
 * path read already touched — so a healed fault must be invisible to
 * an external observer: the trace is bit-identical to the fault-free
 * run of the same seed, and the usual indistinguishability statistics
 * (RRWP-k, leaf uniformity) hold with faults active.  A recovery that
 * issued extra DRAM traffic would be a detectable event correlated
 * with data duplication — exactly the leak class the paper's Rule-1/
 * Rule-2 placement argument excludes.
 */

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/Distinguisher.hh"
#include "security/TraceRecorder.hh"
#include "svc/Service.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

std::vector<Addr>
randomSequence(std::size_t n, std::uint64_t space, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> seq(n);
    for (std::size_t i = 0; i < n; ++i)
        seq[i] = rng.below(space);
    return seq;
}

/** smallConfig + active fault injection, losses counted not fatal. */
OramConfig
faultyConfig(double rate)
{
    OramConfig cfg = smallConfig();
    cfg.fault.rate = rate;
    cfg.fault.seed = 97;
    cfg.fault.onUnrecoverable = UnrecoverablePolicy::Count;
    return cfg;
}

ShadowConfig
modeConfig(ShadowMode mode)
{
    ShadowConfig scfg;
    scfg.mode = mode;
    return scfg;
}

/**
 * Arm the tier-1/tier-2 ladder aggressively enough to actually fire
 * at test scale: first failure quarantines a slot, and the
 * watermarks sit below the steady-state stash swing so degraded mode
 * cycles many times per run.
 */
void
armLadder(OramConfig &cfg)
{
    cfg.health.quarantineThreshold = 1;
    cfg.health.stashHighWatermark = 3;
    cfg.health.stashLowWatermark = 1;
}

} // namespace

class FaultObliviousness
    : public ::testing::TestWithParam<ShadowMode>
{
};

TEST_P(FaultObliviousness, RecoveryLeavesTheTraceUntouched)
{
    // Same seed, same address sequence, one run clean and one run
    // with an aggressive fault rate: every externally visible event
    // must match bit for bit.  (Fault injection corrupts stored
    // ciphertext in place; detection and shadow recovery both happen
    // inside the path read the access performs anyway.)
    //
    // Shadow stash-hit suppression is disabled, as in the baseline
    // trace-identity test: a corrupted shadow gets dropped instead of
    // stashed, which changes *when* later requests reach the ORAM.
    // Hit-rate variation is the timing-protection front-end's problem
    // (it schedules requests at a fixed rate regardless); the address
    // trace of the issued requests is what recovery must not touch.
    const auto addrs = randomSequence(2500, 1 << 10, 67);

    OramConfig cleanCfg = smallConfig();
    cleanCfg.serveFromShadow = false;
    OramStack clean(Scheme::Shadow, cleanCfg, modeConfig(GetParam()));
    TraceRecorder cleanTrace;
    clean.oram().setTraceSink(&cleanTrace);
    drive(clean.oram(), addrs);

    OramConfig faultyCfg = faultyConfig(0.05);
    faultyCfg.serveFromShadow = false;
    OramStack faulty(Scheme::Shadow, faultyCfg, modeConfig(GetParam()));
    TraceRecorder faultyTrace;
    faulty.oram().setTraceSink(&faultyTrace);
    drive(faulty.oram(), addrs);

    // The run must have exercised the machinery being vetted.
    const OramStats &st = faulty.oram().stats();
    ASSERT_GT(st.faultsInjected, 0u);
    EXPECT_GT(st.faultsDetected, 0u);
    EXPECT_GT(st.faultsRecovered, 0u);

    ASSERT_EQ(cleanTrace.events().size(), faultyTrace.events().size());
    for (std::size_t i = 0; i < cleanTrace.events().size(); ++i) {
        ASSERT_TRUE(cleanTrace.events()[i] == faultyTrace.events()[i])
            << "fault recovery perturbed the trace at event " << i;
    }
}

TEST_P(FaultObliviousness, LadderMechanismsLeaveTheTraceUntouched)
{
    // Tier 1 and tier 2 both active: slot quarantine permanently
    // retires slots (faulty run only — failures drive it) and the
    // backpressure latch cycles degraded mode with its emergency
    // sweeps (both runs — the latch watches real-stash occupancy,
    // which faults never perturb).  Neither mechanism may leave a
    // fingerprint in the external trace: the clean run under the
    // same health config must match the faulted run bit for bit.
    const auto addrs = randomSequence(2500, 1 << 10, 67);

    OramConfig cleanCfg = smallConfig();
    cleanCfg.serveFromShadow = false;
    armLadder(cleanCfg);
    OramStack clean(Scheme::Shadow, cleanCfg, modeConfig(GetParam()));
    TraceRecorder cleanTrace;
    clean.oram().setTraceSink(&cleanTrace);
    drive(clean.oram(), addrs);

    OramConfig faultyCfg = faultyConfig(0.05);
    faultyCfg.serveFromShadow = false;
    armLadder(faultyCfg);
    OramStack faulty(Scheme::Shadow, faultyCfg, modeConfig(GetParam()));
    TraceRecorder faultyTrace;
    faulty.oram().setTraceSink(&faultyTrace);
    drive(faulty.oram(), addrs);

    // Both ladder tiers must actually have fired.
    const OramStats &st = faulty.oram().stats();
    ASSERT_GT(st.faultsRecovered, 0u);
    ASSERT_GT(st.slotsQuarantined, 0u);
    ASSERT_GT(st.degradedEntries, 0u);
    ASSERT_GT(st.emergencyEvictions, 0u);
    // The latch is fault-blind: the clean run cycles identically.
    EXPECT_EQ(clean.oram().stats().degradedEntries,
              st.degradedEntries);
    EXPECT_EQ(clean.oram().stats().emergencyEvictions,
              st.emergencyEvictions);

    ASSERT_EQ(cleanTrace.events().size(), faultyTrace.events().size());
    for (std::size_t i = 0; i < cleanTrace.events().size(); ++i) {
        ASSERT_TRUE(cleanTrace.events()[i] == faultyTrace.events()[i])
            << "ladder mechanism perturbed the trace at event " << i;
    }
}

TEST_P(FaultObliviousness, ReadLeavesStayUniformUnderFaults)
{
    OramStack fx(Scheme::Shadow, faultyConfig(0.05), modeConfig(GetParam()));
    TraceRecorder rec;
    fx.oram().setTraceSink(&rec);
    drive(fx.oram(), randomSequence(4000, 1 << 10, 71));
    ASSERT_GT(fx.oram().stats().faultsRecovered, 0u);
    const double chi2 = leafUniformityChi2(
        rec.events(), 16, fx.oram().tree().numLeaves());
    EXPECT_LT(chi2, 1.8);
}

TEST_P(FaultObliviousness, ScanAndCyclicStayInseparableUnderFaults)
{
    // The RRWP-k distinguisher from the paper's Section III, re-run
    // with faults active and the full degradation ladder armed:
    // recovered corruption, quarantined slots and degraded-mode
    // emergency sweeps must not reintroduce a workload-dependent
    // signal.
    auto collectRates = [&](const std::vector<Addr> &addrs) {
        OramConfig cfg = faultyConfig(0.02);
        cfg.seed = 59;
        armLadder(cfg);
        OramStack fx(Scheme::Shadow, cfg, modeConfig(GetParam()));
        TraceRecorder rec;
        fx.oram().setTraceSink(&rec);
        drive(fx.oram(), addrs);
        EXPECT_GT(fx.oram().stats().faultsRecovered, 0u);
        // RRWP-k must hold with the ladder actually engaged, not
        // merely configured.
        EXPECT_GT(fx.oram().stats().slotsQuarantined, 0u);
        EXPECT_GT(fx.oram().stats().degradedEntries, 0u);
        std::vector<double> rates;
        const auto &ev = rec.events();
        const std::size_t chunk = 400;
        for (std::size_t s = 0; s + chunk <= ev.size(); s += chunk) {
            std::vector<TraceEvent> part(ev.begin() + s,
                                         ev.begin() + s + chunk);
            rates.push_back(rrwpRate(part, 32));
        }
        return rates;
    };

    std::vector<Addr> scan(3000), cyclic(3000);
    for (std::size_t i = 0; i < scan.size(); ++i) {
        scan[i] = i % (1 << 10);
        cyclic[i] = i % 600;  // Beyond the stash; see TraceSecurity.
    }
    auto scanRates = collectRates(scan);
    auto cyclicRates = collectRates(cyclic);
    ASSERT_GE(scanRates.size(), 5u);
    ASSERT_GE(cyclicRates.size(), 5u);
    const double z = meanDistinguisherZ(scanRates, cyclicRates);
    EXPECT_LT(std::abs(z), 4.0)
        << "fault recovery made the traces separable";
}

TEST_P(FaultObliviousness, ServiceSheddingStaysInseparableUnderFaults)
{
    // The service layer stacks scheduling machinery on top of the
    // controller: bounded admission, deadline retries, structured
    // shedding and pressure-driven duplication suppression.  All of
    // it is timing-driven — shed decisions are a function of queue
    // depth and deadlines, never of which address a request names —
    // so an overloaded, fault-ridden run must leave the RRWP-k
    // distinguisher unable to separate a scan stream from a cyclic
    // one even while a sizable fraction of each is being shed.
    auto collectRates = [&](const std::vector<Addr> &addrs) {
        svc::ServiceConfig cfg;
        cfg.oram = faultyConfig(0.02);
        cfg.oram.seed = 59;
        armLadder(cfg.oram);
        cfg.shadow = modeConfig(GetParam());
        cfg.arrivals.seed = 31;
        cfg.arrivals.clients = 64;
        cfg.arrivals.addressBlocks = 1 << 10;
        cfg.requests = addrs.size();
        cfg.queueCapacity = 32;
        cfg.queueHighWatermark = 24;
        cfg.queueLowWatermark = 8;
        cfg.deadline = 25'000;
        cfg.maxRetries = 1;

        // Open-loop pressure: alternating 300-request blocks of burst
        // (gaps far below the per-access service time, so the bounded
        // queue fills and admission sheds) and drain (gaps far above
        // it, so the backlog completes).  The cadence is identical for
        // both streams, so any divergence in shed decisions could only
        // come from the address pattern — exactly what must not
        // happen.
        std::vector<ArrivalRecord> stream(addrs.size());
        Cycles t = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            t += (i / 300) % 2 == 0 ? 60 : 1200;
            stream[i].arrival = t;
            stream[i].client = i % 64;
            stream[i].addr = addrs[i];
            stream[i].isWrite = false;
        }

        svc::ServicePipeline pipe(cfg);
        TraceRecorder rec;
        pipe.setTraceSink(&rec);
        pipe.injectArrivals(std::move(stream));
        const svc::ServiceStats st = pipe.run();

        // Overload and faults must both have been live, and the
        // pipeline fail-operational throughout.
        EXPECT_GT(st.requestsShed, 0u);
        EXPECT_GT(st.oram.faultsRecovered, 0u);
        EXPECT_DOUBLE_EQ(st.availability(), 1.0);

        std::vector<double> rates;
        const auto &ev = rec.events();
        const std::size_t chunk = 200;
        for (std::size_t s = 0; s + chunk <= ev.size(); s += chunk) {
            std::vector<TraceEvent> part(ev.begin() + s,
                                         ev.begin() + s + chunk);
            rates.push_back(rrwpRate(part, 32));
        }
        return rates;
    };

    std::vector<Addr> scan(3000), cyclic(3000);
    for (std::size_t i = 0; i < scan.size(); ++i) {
        scan[i] = i % (1 << 10);
        cyclic[i] = i % 600;  // Beyond the stash; see TraceSecurity.
    }
    auto scanRates = collectRates(scan);
    auto cyclicRates = collectRates(cyclic);
    ASSERT_GE(scanRates.size(), 5u);
    ASSERT_GE(cyclicRates.size(), 5u);
    const double z = meanDistinguisherZ(scanRates, cyclicRates);
    EXPECT_LT(std::abs(z), 4.0)
        << "overload shedding made the traces separable";
}

INSTANTIATE_TEST_SUITE_P(
    ShadowSchemes, FaultObliviousness,
    ::testing::Values(ShadowMode::RdOnly, ShadowMode::HdOnly,
                      ShadowMode::DynamicPartition),
    [](const ::testing::TestParamInfo<ShadowMode> &info) {
        switch (info.param) {
        case ShadowMode::RdOnly: return "RdDup";
        case ShadowMode::HdOnly: return "HdDup";
        default: return "DynamicPartition";
        }
    });
