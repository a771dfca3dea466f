/**
 * @file
 * Stash occupancy study (paper Section IV-B2).
 *
 * The security argument requires that shadow blocks do not change the
 * stash-overflow probability: shadow entries are always replaceable,
 * so the distribution of *real* stash occupancy must match baseline
 * Tiny ORAM exactly.  This bench drives both controllers with the
 * same request streams and prints the occupancy distribution
 * percentiles side by side, plus the worst case over all seeds.
 */

#include <algorithm>

#include "BenchUtil.hh"
#include "sim/OramStack.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

struct OccupancySample
{
    std::vector<std::uint64_t> samples;  ///< Real occupancy per access.
    std::uint64_t peak = 0;

    double
    percentile(double p) const
    {
        if (samples.empty())
            return 0.0;
        std::vector<std::uint64_t> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(sorted.size() - 1));
        return static_cast<double>(sorted[idx]);
    }
};

OccupancySample
drive(bool shadow, std::uint64_t seed, std::uint64_t accesses)
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 16;
    cfg.posMapMode = PosMapMode::OnChip;
    cfg.seed = seed;
    cfg.serveFromShadow = false;  // Identical request streams.

    OramStack stack(shadow ? Scheme::Shadow : Scheme::Tiny, cfg);
    TinyOram &oram = stack.oram();

    Rng rng(seed * 77 + 1);
    OccupancySample out;
    Cycles t = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        Addr a = rng.below(1 << 16);
        Op op = rng.chance(0.3) ? Op::Write : Op::Read;
        t = oram.access(a, op, t + 100).completeAt;
        out.samples.push_back(oram.stash().realCount());
    }
    out.peak = oram.stash().stats().peakReal;
    return out;
}

} // namespace

static int
runBench()
{
    const std::uint64_t accesses = quickMode() ? 4000 : 12000;
    Table t("Stash occupancy (real blocks) — Tiny vs Shadow Block "
            "under identical request streams");
    t.header({"seed", "p50 T/S", "p90 T/S", "p99 T/S", "max T/S",
              "identical"});

    struct SeedRuns
    {
        Future<OccupancySample> tiny, shadow;
    };
    const std::uint64_t seeds = quickMode() ? 2 : 5;
    std::vector<SeedRuns> runs;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed)
        runs.push_back({runner().defer([seed, accesses] {
                            return drive(false, seed, accesses);
                        }),
                        runner().defer([seed, accesses] {
                            return drive(true, seed, accesses);
                        })});

    bool allIdentical = true;
    std::uint64_t worstPeak = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SeedRuns &r = runs[seed - 1];
        const OccupancySample tiny = r.tiny.get();
        const OccupancySample shadow = r.shadow.get();
        const bool identical = tiny.samples == shadow.samples;
        allIdentical = allIdentical && identical;
        worstPeak = std::max({worstPeak, tiny.peak, shadow.peak});

        t.beginRow(std::to_string(seed));
        auto pair = [&](double p) {
            return std::to_string(static_cast<unsigned>(
                       tiny.percentile(p))) + "/" +
                   std::to_string(static_cast<unsigned>(
                       shadow.percentile(p)));
        };
        t.cell(pair(0.50));
        t.cell(pair(0.90));
        t.cell(pair(0.99));
        t.cell(std::to_string(tiny.peak) + "/" +
               std::to_string(shadow.peak));
        t.cell(identical ? "yes" : "NO");
    }
    t.print();

    std::printf("\nworst-case real occupancy %llu of %u-entry stash; "
                "per-access occupancy traces %s between Tiny and "
                "Shadow Block\n",
                static_cast<unsigned long long>(worstPeak), 200,
                allIdentical ? "are bit-identical"
                             : "DIVERGED (bug!)");
    return allIdentical ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
