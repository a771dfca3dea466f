/**
 * @file
 * Section III / IV-B as an experiment: the RRWP-k distinguisher over
 * external traces of the shadow block design (must NOT separate scan
 * from cyclic programs), the leaf-uniformity chi-square, and the
 * counterfactual reordering leak (intended-block level sequences,
 * which separate the programs immediately).
 */

#include <cmath>
#include <utility>

#include "BenchUtil.hh"
#include "security/Distinguisher.hh"
#include "security/TraceRecorder.hh"
#include "sim/OramStack.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

struct Observation
{
    std::vector<double> rrwpRates;
    std::vector<double> levels;
    double chi2 = 0.0;
};

Observation
observe(const std::vector<Addr> &addrs, std::uint64_t seed)
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 14;
    cfg.posMapMode = PosMapMode::OnChip;
    cfg.seed = seed;
    OramStack stack(Scheme::Shadow, cfg);
    TinyOram &oram = stack.oram();
    TraceRecorder rec;
    oram.setTraceSink(&rec);

    Observation obs;
    Cycles t = 0;
    for (Addr a : addrs) {
        if (oram.wouldHitStash(a, Op::Read)) {
            oram.access(a, Op::Read, t + 100);
            continue;
        }
        AccessResult r = oram.access(a, Op::Read, t + 100);
        t = r.completeAt;
        obs.levels.push_back(static_cast<double>(r.forwardLevel));
    }
    const auto &ev = rec.events();
    const std::size_t chunk = 400;
    for (std::size_t s = 0; s + chunk <= ev.size(); s += chunk) {
        std::vector<TraceEvent> part(ev.begin() + s,
                                     ev.begin() + s + chunk);
        obs.rrwpRates.push_back(rrwpRate(part, 32));
    }
    obs.chi2 = leafUniformityChi2(ev, 16, oram.tree().numLeaves());
    return obs;
}

} // namespace

static int
runBench()
{
    const std::size_t n = quickMode() ? 4000 : 8000;
    std::vector<Addr> scan, cyclic;
    for (std::size_t i = 0; i < n; ++i) {
        scan.push_back(static_cast<Addr>(i % (1 << 14)));
        cyclic.push_back(static_cast<Addr>(i % 1500));
    }

    Future<Observation> sF = runner().defer(
        [trace = std::move(scan)] { return observe(trace, 3); });
    Future<Observation> cF = runner().defer(
        [trace = std::move(cyclic)] { return observe(trace, 3); });
    const Observation s = sF.get();
    const Observation c = cF.get();

    Table t("Security experiments (Sections III and IV-B)");
    t.header({"statistic", "value", "verdict"});

    const double zTrace = meanDistinguisherZ(s.rrwpRates,
                                             c.rrwpRates);
    t.beginRow("RRWP-32 distinguisher |z| (shadow design)");
    t.cell(std::fabs(zTrace), 2);
    t.cell(std::fabs(zTrace) < 4.0 ? "indistinguishable"
                                   : "LEAK");

    t.beginRow("leaf uniformity chi2/df (scan)");
    t.cell(s.chi2, 3);
    t.cell(s.chi2 < 1.8 ? "uniform" : "SKEWED");
    t.beginRow("leaf uniformity chi2/df (cyclic)");
    t.cell(c.chi2, 3);
    t.cell(c.chi2 < 1.8 ? "uniform" : "SKEWED");

    const double zLeak = meanDistinguisherZ(s.levels, c.levels);
    t.beginRow("counterfactual reorder leak |z|");
    t.cell(std::fabs(zLeak), 2);
    t.cell(std::fabs(zLeak) > 4.0 ? "reordering would leak"
                                  : "inconclusive");
    t.print();

    return std::fabs(zTrace) < 4.0 && s.chi2 < 1.8 &&
                   c.chi2 < 1.8
        ? 0
        : 1;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
