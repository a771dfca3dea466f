/**
 * @file
 * Shared vocabulary of the repository benchmark: command-line
 * options, the metric catalogue, and the Report every workload fills.
 *
 * The metric names here are the benchmark's public interface: they
 * must match BENCHMARK.json exactly (run.py checks), and later changes
 * cite them when they claim or rule out a performance effect.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of a non-empty sample (mean of the middle pair if even). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of get(x) over the elements x of @p items. */
template <class Items, class Get>
double
medianOf(const Items &items, Get get)
{
    std::vector<double> v;
    for (const auto &x : items)
        v.push_back(get(x));
    return median(v);
}

/** Set-ups timed before the first trial; they also warm the heap. */
constexpr unsigned kSetupReps = 5;

/** Fewest trials a run makes, however long they take. */
constexpr std::size_t kMinTrials = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 10.0;
    bool trace = false;
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported by the untraced run, on every workload. */
inline const std::vector<MetricSpec> kEndToEnd = {
    {"accesses_per_s", "accesses/s"},
    {"requests_per_s", "requests/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles_per_miss", "cycles"},
    {"latency_p50_cycles", "cycles"},
    {"latency_p999_cycles", "cycles"},
};

/**
 * Reported by the traced run, on every workload; a layer a workload
 * does not exercise reads 0.  "per_miss" divides by the ORAM requests
 * the workload issued (LLC misses, or service accesses after dedup).
 */
inline const std::vector<MetricSpec> kPerLayer = {
    {"workload.gen_s", "s"},
    {"cpu.self_s", "s"},
    {"oram.access_s", "s"},
    {"oram.ns_per_path", "ns"},
    {"oram.path_reads_per_miss", "count"},
    {"oram.evictions_per_miss", "count"},
    {"oram.posmap_accesses_per_miss", "count"},
    {"oram.dummy_accesses_per_miss", "count"},
    {"oram.stash_hit_rate", "ratio"},
    {"oram.onchip_hit_rate", "ratio"},
    {"oram.shadow_forward_rate", "ratio"},
    {"oram.levels_advanced_mean", "levels"},
    {"oram.stash_real_peak", "blocks"},
    {"oram.stash_shadow_mean", "blocks"},
    {"shadow.hook_s", "s"},
    {"shadow.hotness_lookups_per_miss", "count"},
    {"shadow.offers_per_miss", "count"},
    {"shadow.placed_per_miss", "count"},
    {"shadow.select_calls_per_miss", "count"},
    {"shadow.select_yield", "ratio"},
    {"shadow.shadows_written_per_miss", "count"},
    {"shadow.partition_adjustments", "count"},
    {"shadow.final_partition_level", "level"},
    {"crypto.payload_s", "s"},
    {"crypto.payload_share", "ratio"},
    {"mem.dram_reads_per_miss", "count"},
    {"mem.dram_writes_per_miss", "count"},
    {"mem.activates_per_miss", "count"},
    {"mem.row_hit_rate", "ratio"},
    {"mem.replay_s", "s"},
    {"svc.run_s", "s"},
    {"svc.oram_replay_s", "s"},
    {"svc.self_s", "s"},
    {"svc.issued_per_request", "ratio"},
    {"svc.dedup_join_rate", "ratio"},
    {"svc.shadow_early_rate", "ratio"},
    {"svc.shed_rate", "ratio"},
    {"svc.max_queue_depth", "count"},
    {"svc.backpressure_entries", "count"},
    {"svc.stage.queue_wait_p999_cycles", "cycles"},
    {"svc.stage.path_access_p50_cycles", "cycles"},
    {"trace.overhead_pct", "%"},
};

/** What one invocation measured and whether its outputs held up. */
struct Report
{
    std::map<std::string, double> values;
    /** Every failed correctness or fidelity check, in order. */
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    /** Operations that failed: stash overflows, unrecoverable faults,
     *  shed requests and deadline misses. */
    std::uint64_t failed = 0;

    void set(const std::string &name, double value) { values[name] = value; }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Prints the simulated-stats fingerprint line two commits compare. */
void printFingerprint(const Options &opt, std::uint64_t fingerprint);

/** Prints how many trials ran and the spread of their host times. */
void printTrials(std::size_t trials, std::uint64_t opsPerTrial,
                 const char *op, std::vector<double> runSeconds);

Report runTraceWorkload(const Options &opt);
Report runServiceWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
