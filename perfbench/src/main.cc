/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * Runs one workload on one simulation thread.  Without --trace it
 * measures the end-to-end metrics; with --trace 1 it measures the
 * per-layer metrics through outside-in probes and first proves that
 * the probed program is the timed one (fidelity checks).  Human-
 * readable lines — host fingerprint, simulated-stats fingerprint —
 * precede the result, which is the last line of stdout: one JSON
 * object with `correct`, `attempted`, `failed` and `metrics`.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "Bench.hh"
#include "common/Version.hh"

namespace perfbench {

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
printFingerprint(const Options &opt, std::uint64_t fingerprint)
{
    std::printf("fingerprint %s seed %llu: %016llx\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(fingerprint));
}

void
printTrials(std::size_t trials, std::uint64_t opsPerTrial, const char *op,
            std::vector<double> runSeconds)
{
    std::sort(runSeconds.begin(), runSeconds.end());
    std::printf("trials %zu of %llu %s, run seconds min %.4f median %.4f "
                "max %.4f\n",
                trials, static_cast<unsigned long long>(opsPerTrial), op,
                runSeconds.front(), median(runSeconds),
                runSeconds.back());
}

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

/** Why this binary must not record timings, or empty if it may. */
std::string
unfitBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if !defined(__OPTIMIZE__)
    return "unoptimized build";
#endif
    if (std::strcmp(PB_BUILD_TYPE, "Debug") == 0)
        return "Debug build";
    if (std::strstr(PB_CXX_FLAGS, "-fsanitize") != nullptr)
        return "sanitizer build";
    return {};
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload")
                opt.workload = val;
            else if (key == "--seed")
                opt.seed = std::stoull(val);
            else if (key == "--seconds")
                opt.seconds = std::stod(val);
            else if (key == "--trace" && (val == "0" || val == "1"))
                opt.trace = val == "1";
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

/** Why @p r cannot be printed against @p specs, or empty if it can. */
std::string
metricProblem(const Report &r, const std::vector<MetricSpec> &specs,
              bool trace)
{
    for (const auto &entry : r.values) {
        const std::string &name = entry.first;
        if (std::none_of(specs.begin(), specs.end(),
                         [&](const MetricSpec &m) { return name == m.name; }))
            return "metric " + name + " is not in the catalogue";
        if (!std::isfinite(entry.second))
            return "metric " + name + " is not finite";
    }
    // Every end-to-end metric is defined on every workload; a
    // per-layer metric a workload does not exercise reads 0.
    for (const MetricSpec &m : specs) {
        if (!trace && r.values.count(m.name) == 0)
            return std::string("metric ") + m.name + " was not measured";
    }
    return {};
}

void
printResult(const Report &r, const std::vector<MetricSpec> &specs)
{
    std::string out = "{\"correct\": ";
    out += r.failures.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m : specs) {
        const auto it = r.values.find(m.name);
        const double v = it == r.values.end() ? 0.0 : it->second;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += first ? "" : ", ";
        out += std::string("\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
run(const Options &opt)
{
    const bool service = opt.workload == "svc_burst_shadow";
    if (!service && opt.workload != "mcf_shadow_payload" &&
        opt.workload != "hmmer_tiny_tp") {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
                "build=%s git=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PB_COMPILER, PB_CXX_FLAGS, PB_BUILD_TYPE,
                sboram::kGitDescribe);
    std::printf("workload %s seed %llu seconds %g %s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? "traced" : "untraced");
    std::fflush(stdout);

    const Report r =
        service ? runServiceWorkload(opt) : runTraceWorkload(opt);
    const std::vector<MetricSpec> &specs = opt.trace ? kPerLayer
                                                     : kEndToEnd;
    for (const std::string &f : r.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    const std::string problem = metricProblem(r, specs, opt.trace);
    if (!problem.empty())
        std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    // A traced run that fails any check prints nothing: its per-layer
    // numbers would describe a program other than the timed one.
    if (!problem.empty() || (opt.trace && !r.failures.empty()))
        return 1;
    printResult(r, specs);
    return r.failures.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    if (!perfbench::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME [--seed N] "
                     "[--seconds S] [--trace 0|1]\n");
        return 2;
    }
    const std::string unfit = perfbench::unfitBuild();
    if (!unfit.empty()) {
        std::fprintf(stderr, "perfbench: refusing to record results "
                             "from a %s\n", unfit.c_str());
        return 2;
    }
    try {
        return perfbench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
