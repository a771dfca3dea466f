/**
 * @file
 * The closed-loop trace workloads: an in-order CPU replays a seeded
 * LLC-miss trace into the controller, issuing each miss only after
 * the previous read's data returned plus its compute gap.
 *
 *  mcf_shadow_payload  Shadow Block (dynamic partitioning) with
 *                      payload encryption, 2^16-block tree — the
 *                      `throughput` bench's configuration.
 *  hmmer_tiny_tp       Tiny ORAM with timing protection, paper-size
 *                      2^20-block tree — the TP figures' baseline.
 *
 * A trial generates the trace and assembles a fresh controller (the
 * set-up), then runs the whole trace.  Trials repeat until the time
 * budget is spent; host metrics are medians over trials.  Every trial
 * simulates the same thing, so its simulated statistics must hash
 * identically.
 */

#include <cstdio>
#include <stdexcept>

#include "Bench.hh"
#include "Probes.hh"

namespace perfbench {

namespace {

struct TraceSpec
{
    const char *profile;
    SystemConfig cfg;
    /** Misses per trial: a few host seconds, so each trial averages
     *  over short bursts of machine noise. */
    std::uint64_t misses;
};

/** The figure benches' paper-scale point, pinned here so that an edit
 *  to the benches cannot silently change a benchmark workload. */
SystemConfig
paperSystem()
{
    SystemConfig cfg;
    cfg.oram.dataBlocks = std::uint64_t(1) << 20;
    cfg.oram.slotsPerBucket = 5;
    cfg.oram.evictionRate = 5;
    cfg.oram.posMapMode = PosMapMode::Recursive;
    cfg.oram.plbBytes = 64 * 1024;
    cfg.oram.stashCapacity = 200;
    return cfg;
}

TraceSpec
specFor(const std::string &workload)
{
    if (workload == "mcf_shadow_payload") {
        SystemConfig cfg = paperSystem();
        cfg.oram.dataBlocks = std::uint64_t(1) << 16;
        cfg.oram.payloadEnabled = true;
        cfg.scheme = Scheme::Shadow;
        cfg.shadow.mode = ShadowMode::DynamicPartition;
        return {"mcf", cfg, 25'000};
    }
    if (workload == "hmmer_tiny_tp") {
        SystemConfig cfg = paperSystem();
        cfg.scheme = Scheme::Tiny;
        cfg.timingProtection = true;
        return {"hmmer", cfg, 150'000};
    }
    throw std::invalid_argument("unknown trace workload " + workload);
}

enum class Mode
{
    Plain,       ///< Untraced: what the timed run measures.
    Probed,      ///< Counting policy, timed port, path recording.
    PayloadOff,  ///< Plain with payload encryption disabled.
};

/** Everything a trial builds before its first access. */
struct Stack
{
    Stack(const TraceSpec &spec, const SystemConfig &cfg,
          std::uint64_t seed, bool probed)
        : trace(generate(spec, cfg, seed, genSeconds)),
          ctl(cfg.scheme, cfg.oram, cfg.shadow, cfg.dramTiming,
              cfg.dramGeometry, probed),
          port(ctl.oram, cfg, probed, trace.size())
    {
        if (probed)
            ctl.oram.setTraceSink(&paths);
    }

    static std::vector<LlcMissRecord>
    generate(const TraceSpec &spec, const SystemConfig &cfg,
             std::uint64_t seed, double &seconds)
    {
        const Clock::time_point t0 = Clock::now();
        std::vector<LlcMissRecord> trace =
            makeTrace(spec.profile, spec.misses, seed);
        // Fold into the data space exactly as runSystem does.
        for (LlcMissRecord &rec : trace)
            rec.addr %= cfg.oram.dataBlocks;
        seconds = since(t0);
        return trace;
    }

    double genSeconds = 0.0;
    std::vector<LlcMissRecord> trace;
    Controller ctl;
    BenchPort port;
    TraceRecorder paths;
};

struct Trial
{
    double genSeconds = 0.0;
    double setupSeconds = 0.0;  ///< Trace generation + assembly.
    double runSeconds = 0.0;    ///< InOrderCpu::run.
    CpuRunResult cpu;
    OramStats oram;
    StashStats stash;
    DramStats dram;
    unsigned partitionLevel = 0;
    std::uint64_t partitionAdjustments = 0;
    Cycles p50 = 0;
    Cycles p999 = 0;
    std::uint64_t latencySamples = 0;
    std::uint64_t fingerprint = 0;
    // Probed trials only.
    PortProbe port;
    CountingPolicy::Counts shadow;
    DramReplay replay;
    bool replayMatches = false;
};

SystemConfig
configFor(const TraceSpec &spec, Mode mode)
{
    SystemConfig cfg = spec.cfg;
    if (mode == Mode::PayloadOff)
        cfg.oram.payloadEnabled = false;
    return cfg;
}

double
timeSetup(const TraceSpec &spec, std::uint64_t seed)
{
    const Clock::time_point t0 = Clock::now();
    Stack stack(spec, spec.cfg, seed, false);
    return since(t0);
}

Trial
runTrial(const TraceSpec &spec, std::uint64_t seed, Mode mode)
{
    const SystemConfig cfg = configFor(spec, mode);
    const bool probed = mode == Mode::Probed;
    Trial t;
    const Clock::time_point t0 = Clock::now();
    Stack s(spec, cfg, seed, probed);
    t.setupSeconds = since(t0);
    t.genSeconds = s.genSeconds;

    const Clock::time_point t1 = Clock::now();
    t.cpu = InOrderCpu{}.run(s.trace, s.port);
    t.runSeconds = since(t1);

    t.oram = s.ctl.oram.stats();
    t.stash = s.ctl.oram.stash().stats();
    t.dram = s.ctl.dram.stats();
    if (s.ctl.shadow != nullptr) {
        t.partitionLevel = s.ctl.shadow->partitionLevel();
        t.partitionAdjustments =
            s.ctl.shadow->stats().partitionAdjustments;
    }
    t.latencySamples = s.port.latencies().size();
    t.p50 = percentile(s.port.latencies(), 500);
    t.p999 = percentile(s.port.latencies(), 999);
    Fingerprint fp;
    fp.add(t.cpu.finishTime).add(t.cpu.reads).add(t.cpu.writes);
    fp.add(t.oram).add(t.dram);
    fp.add(t.stash.peakReal).add(t.stash.overflowEvents);
    fp.add(t.partitionLevel).add(t.p50).add(t.p999);
    t.fingerprint = fp.value();

    if (probed) {
        t.port = s.port.probe();
        if (s.ctl.counting != nullptr)
            t.shadow = s.ctl.counting->counts();
        t.replay = replayPaths(s.paths.events(), s.ctl.oram,
                               cfg.dramTiming, cfg.dramGeometry);
        t.replayMatches = sameDramCounts(t.replay.stats, t.dram);
    }
    return t;
}

/** Output checks every trial must pass. */
void
checkTrial(Report &r, const TraceSpec &spec, const Trial &t,
           std::uint64_t expectFingerprint)
{
    r.check(t.oram.requests == spec.misses,
            "controller requests != trace misses");
    r.check(t.cpu.reads + t.cpu.writes == spec.misses,
            "CPU retired a different number of misses");
    r.check(t.latencySamples == spec.misses,
            "latency samples != misses");
    r.check(t.stash.overflowEvents == 0, "stash overflowed");
    r.check(t.oram.faultsUnrecoverable == 0, "unrecoverable fault");
    r.check(t.fingerprint == expectFingerprint,
            "simulated statistics differ between trials");
    r.attempted += spec.misses;
    r.failed += t.stash.overflowEvents + t.oram.faultsUnrecoverable;
}

double
runSecondsOf(const Trial &t)
{
    return t.runSeconds;
}

Report
timedRun(const Options &opt, const TraceSpec &spec)
{
    Report r;
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetupReps; ++i)
        setups.push_back(timeSetup(spec, opt.seed));
    std::vector<Trial> trials;
    const Clock::time_point start = Clock::now();
    while (trials.size() < kMinTrials || since(start) < opt.seconds) {
        trials.push_back(runTrial(spec, opt.seed, Mode::Plain));
        const Trial &t = trials.back();
        checkTrial(r, spec, t, trials.front().fingerprint);
        setups.push_back(t.setupSeconds);
    }
    const Trial &ref = trials.front();
    printFingerprint(opt, ref.fingerprint);
    std::vector<double> times;
    for (const Trial &t : trials)
        times.push_back(t.runSeconds);
    printTrials(trials.size(), spec.misses, "misses", times);
    std::printf("latency samples (misses): %llu\n",
                static_cast<unsigned long long>(ref.latencySamples));

    const double misses = static_cast<double>(spec.misses);
    const double rate = misses / median(times);
    r.set("accesses_per_s", rate);
    // Each LLC miss is one client request of the closed loop.
    r.set("requests_per_s", rate);
    r.set("setup_s", median(setups));
    r.set("peak_rss_mb", peakRssMb());
    r.set("sim_cycles_per_miss",
          static_cast<double>(ref.cpu.finishTime) / misses);
    r.set("latency_p50_cycles", static_cast<double>(ref.p50));
    r.set("latency_p999_cycles", static_cast<double>(ref.p999));
    return r;
}

/** Simulated statistics the runSystem reference must match. */
bool
matchesRunSystem(const Trial &t, const RunMetrics &ref)
{
    return t.cpu.finishTime == ref.execTime &&
           t.oram.requests == ref.requests &&
           t.oram.dummyAccesses == ref.dummyRequests &&
           t.oram.pathReads == ref.pathReads &&
           t.oram.shadowsWritten == ref.shadowsWritten &&
           t.oram.shadowForwards == ref.shadowForwards &&
           t.oram.stashHits == ref.stashHits &&
           t.oram.shadowStashHits == ref.shadowStashHits &&
           t.stash.peakReal == ref.stashPeakReal &&
           t.stash.overflowEvents == ref.stashOverflows &&
           t.partitionLevel == ref.finalPartitionLevel;
}

Report
tracedRun(const Options &opt, const TraceSpec &spec)
{
    Report r;
    const bool payload = spec.cfg.oram.payloadEnabled;
    for (unsigned i = 0; i < kSetupReps; ++i)
        timeSetup(spec, opt.seed);

    // Interleave the variants so machine-load drift hits all alike.
    std::vector<Trial> plain, probed, payloadOff;
    const Clock::time_point start = Clock::now();
    while (probed.size() < kMinTrials || since(start) < opt.seconds) {
        plain.push_back(runTrial(spec, opt.seed, Mode::Plain));
        probed.push_back(runTrial(spec, opt.seed, Mode::Probed));
        if (payload)
            payloadOff.push_back(
                runTrial(spec, opt.seed, Mode::PayloadOff));
    }
    const Trial &ref = plain.front();
    printFingerprint(opt, ref.fingerprint);

    // Fidelity: the benchmark's assembly is the program runSystem
    // runs, down to every simulated statistic; the probes change
    // nothing; the DRAM replay is the run's DRAM stream.
    const RunMetrics sys = runSystem(
        spec.cfg, makeTrace(spec.profile, spec.misses, opt.seed));
    for (const Trial &t : plain)
        checkTrial(r, spec, t, ref.fingerprint);
    for (const Trial &t : probed) {
        checkTrial(r, spec, t, ref.fingerprint);
        r.check(matchesRunSystem(t, sys),
                "the benchmark's assembly differs from runSystem");
        r.check(t.replayMatches,
                "DRAM replay does not reproduce the run's DRAM counts");
    }
    for (const Trial &t : payloadOff) {
        r.check(sameOramStats(t.oram, ref.oram) &&
                    t.cpu.finishTime == ref.cpu.finishTime &&
                    sameDramCounts(t.dram, ref.dram),
                "payload-off run simulates differently");
    }

    const OramStats &os = ref.oram;
    const double misses = static_cast<double>(os.requests);
    auto per = [misses](double v) { return v / misses; };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto probedMedian = [&](auto get) { return medianOf(probed, get); };

    const double runS = probedMedian(runSecondsOf);
    const double plainRunS = medianOf(plain, runSecondsOf);
    const double oramS =
        probedMedian([](const Trial &t) { return t.port.oramSeconds; });
    const double cpuSelf = probedMedian([](const Trial &t) {
        return t.runSeconds - t.port.requestSeconds;
    });
    const double hookS =
        probedMedian([](const Trial &t) { return t.shadow.hookSeconds; });
    const double replayS =
        probedMedian([](const Trial &t) { return t.replay.seconds; });

    r.set("workload.gen_s",
          probedMedian([](const Trial &t) { return t.genSeconds; }));
    r.set("cpu.self_s", cpuSelf);
    r.set("oram.access_s", oramS);
    r.set("oram.ns_per_path",
          1e9 * oramS / static_cast<double>(os.pathReads + os.pathWrites));
    r.set("oram.path_reads_per_miss", per(os.pathReads));
    r.set("oram.evictions_per_miss", per(os.evictions));
    r.set("oram.posmap_accesses_per_miss", per(os.posMapAccesses));
    r.set("oram.dummy_accesses_per_miss", per(os.dummyAccesses));
    r.set("oram.stash_hit_rate", per(os.stashHits));
    r.set("oram.onchip_hit_rate", per(os.onChipHits));
    r.set("oram.shadow_forward_rate",
          ratio(os.shadowForwards, os.pathReads));
    r.set("oram.levels_advanced_mean",
          ratio(os.levelsAdvanced, os.shadowForwards));
    const Trial &p = probed.front();
    r.set("oram.stash_real_peak", p.port.stashRealPeak);
    r.set("oram.stash_shadow_mean",
          ratio(p.port.stashShadowSum, p.port.samples));
    r.set("shadow.hook_s", hookS);
    r.set("shadow.hotness_lookups_per_miss",
          per(p.shadow.hotnessLookups));
    r.set("shadow.offers_per_miss", per(p.shadow.offers));
    r.set("shadow.placed_per_miss", per(p.shadow.placed));
    r.set("shadow.select_calls_per_miss", per(p.shadow.selectCalls));
    r.set("shadow.select_yield",
          ratio(p.shadow.selectChosen, p.shadow.selectCalls));
    r.set("shadow.shadows_written_per_miss", per(os.shadowsWritten));
    r.set("shadow.partition_adjustments", ref.partitionAdjustments);
    r.set("shadow.final_partition_level", ref.partitionLevel);
    const DramStats &ds = ref.dram;
    r.set("mem.dram_reads_per_miss", per(ds.reads));
    r.set("mem.dram_writes_per_miss", per(ds.writes));
    r.set("mem.activates_per_miss", per(ds.activates));
    r.set("mem.row_hit_rate",
          ratio(ds.rowHits, ds.rowHits + ds.rowMisses));
    r.set("mem.replay_s", replayS);
    r.set("trace.overhead_pct", 100.0 * (runS / plainRunS - 1.0));

    double payloadS = 0.0;
    if (payload) {
        payloadS = plainRunS - medianOf(payloadOff, runSecondsOf);
        r.set("crypto.payload_s", payloadS);
        r.set("crypto.payload_share", payloadS / plainRunS);
    }

    std::printf("trials %zu plain / %zu probed / %zu payload-off\n",
                plain.size(), probed.size(), payloadOff.size());
    std::printf("layer shares of the probed run (%.4f s): cpu.self %.1f%%"
                " oram.access %.1f%% shadow.hook %.1f%% mem.replay %.1f%%;"
                " crypto.payload %.1f%% of the untraced run\n",
                runS, 100.0 * cpuSelf / runS, 100.0 * oramS / runS,
                100.0 * hookS / runS, 100.0 * replayS / runS,
                100.0 * payloadS / plainRunS);
    return r;
}

} // namespace

Report
runTraceWorkload(const Options &opt)
{
    const TraceSpec spec = specFor(opt.workload);
    return opt.trace ? tracedRun(opt, spec) : timedRun(opt, spec);
}

} // namespace perfbench
