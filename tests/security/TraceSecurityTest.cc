#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/Distinguisher.hh"
#include "security/TraceRecorder.hh"

using namespace sboram;
using namespace sboram::test;

namespace {

std::vector<Addr>
scanSequence(std::size_t n, std::uint64_t space)
{
    std::vector<Addr> seq(n);
    for (std::size_t i = 0; i < n; ++i)
        seq[i] = i % space;
    return seq;
}

std::vector<Addr>
cyclicSequence(std::size_t n, std::size_t k)
{
    std::vector<Addr> seq(n);
    for (std::size_t i = 0; i < n; ++i)
        seq[i] = i % k;
    return seq;
}

} // namespace

TEST(TraceSecurity, ShadowTraceIdenticalToTinyWithSameSeed)
{
    // Paper Section IV-B1: the external interactions of the shadow
    // design are the same as Tiny ORAM — only ciphertext contents
    // change.  With shadow stash-hit suppression disabled the traces
    // must be bit-identical.
    OramConfig cfg = smallConfig();
    cfg.serveFromShadow = false;

    OramStack tiny(Scheme::Tiny, cfg);
    OramStack shadow(Scheme::Shadow, cfg);
    TraceRecorder tinyTrace, shadowTrace;
    tiny.oram().setTraceSink(&tinyTrace);
    shadow.oram().setTraceSink(&shadowTrace);

    Rng rng(41);
    std::vector<Addr> addrs;
    for (int i = 0; i < 1200; ++i)
        addrs.push_back(rng.below(1 << 10));

    drive(tiny.oram(), addrs);
    drive(shadow.oram(), addrs);

    ASSERT_EQ(tinyTrace.events().size(), shadowTrace.events().size());
    for (std::size_t i = 0; i < tinyTrace.events().size(); ++i) {
        ASSERT_TRUE(tinyTrace.events()[i] == shadowTrace.events()[i])
            << "traces diverge at event " << i;
    }
    // And the shadow run really did write shadow blocks.
    EXPECT_GT(shadow.oram().stats().shadowsWritten, 0u);
}

TEST(TraceSecurity, ReadLeavesAreUniform)
{
    OramStack fx(Scheme::Shadow, smallConfig());
    TraceRecorder rec;
    fx.oram().setTraceSink(&rec);
    Rng rng(43);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4000; ++i)
        addrs.push_back(rng.below(1 << 10));
    drive(fx.oram(), addrs);
    // Normalised chi-square close to 1 means uniform labels.
    const double chi2 = leafUniformityChi2(
        rec.events(), 16, fx.oram().tree().numLeaves());
    EXPECT_LT(chi2, 1.8);
}

TEST(TraceSecurity, ScanAndCyclicTracesIndistinguishable)
{
    // The RRWP-k statistic (paper Section III) computed over our
    // design's external traces must NOT separate scan from cyclic
    // address sequences.
    auto collectRates = [](const std::vector<Addr> &addrs,
                           std::uint64_t seed) {
        OramConfig cfg = smallConfig();
        cfg.seed = seed;
        OramStack fx(Scheme::Shadow, cfg);
        TraceRecorder rec;
        fx.oram().setTraceSink(&rec);
        drive(fx.oram(), addrs);
        // Chunk the trace and compute RRWP-32 per chunk.
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

    // The cyclic set is sized well beyond the stash so the requests
    // still reach the ORAM (a tight loop would be absorbed by shadow
    // stash hits entirely — which leaks nothing, but also yields no
    // trace to test).
    auto scanRates = collectRates(scanSequence(3000, 1 << 10), 51);
    auto cyclicRates = collectRates(cyclicSequence(3000, 600), 51);
    ASSERT_GE(scanRates.size(), 5u);
    ASSERT_GE(cyclicRates.size(), 5u);
    const double z = meanDistinguisherZ(scanRates, cyclicRates);
    EXPECT_LT(std::abs(z), 4.0) << "external traces are separable";
}

TEST(TraceSecurity, NaiveReorderingWouldLeak)
{
    // Negative control for the motivation argument: a design that
    // accessed the intended block first would reveal its tree level.
    // The level sequences under scan vs cyclic access are trivially
    // separable — this is why plain reordering is insecure and
    // duplication is needed.
    auto collectLevels = [](const std::vector<Addr> &addrs,
                            std::uint64_t seed) {
        OramConfig cfg = smallConfig();
        cfg.seed = seed;
        OramStack fx(Scheme::Tiny, cfg);
        std::vector<double> levels;
        Cycles t = 0;
        for (Addr a : addrs) {
            if (fx.oram().wouldHitStash(a, Op::Read)) {
                fx.oram().access(a, Op::Read, t + 100);
                continue;
            }
            AccessResult r = fx.oram().access(a, Op::Read, t + 100);
            t = r.completeAt;
            levels.push_back(static_cast<double>(r.forwardLevel));
        }
        return levels;
    };

    auto scanLevels = collectLevels(scanSequence(2500, 1 << 10), 53);
    auto cyclicLevels = collectLevels(cyclicSequence(2500, 300), 53);
    ASSERT_GT(scanLevels.size(), 100u);
    ASSERT_GT(cyclicLevels.size(), 100u);
    const double z = meanDistinguisherZ(scanLevels, cyclicLevels);
    EXPECT_GT(std::abs(z), 5.0)
        << "the reordering leak should be blatant";
}

TEST(TraceSecurity, DummyAccessesLookLikeRealOnes)
{
    // Collect read-leaf distributions from real vs dummy accesses;
    // both must be uniform draws.
    OramConfig cfg = smallConfig();
    OramStack fx(Scheme::Shadow, cfg);
    TraceRecorder rec;
    fx.oram().setTraceSink(&rec);
    Cycles t = 0;
    for (int i = 0; i < 1500; ++i)
        t = fx.oram().dummyAccess(t + 100);
    const double chi2 = leafUniformityChi2(
        rec.events(), 16, fx.oram().tree().numLeaves());
    EXPECT_LT(chi2, 1.8);
}
