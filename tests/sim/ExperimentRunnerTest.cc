/**
 * @file
 * The parallel experiment runner must be invisible in the results:
 * running a batch on N workers yields field-for-field the same
 * RunMetrics as the inline 1-thread path, and the process-wide trace
 * cache hands out one immutable trace per (workload, misses, seed).
 */

#include <gtest/gtest.h>

#include "SimTestUtil.hh"
#include "sim/ExperimentRunner.hh"

using namespace sboram;
using sboram::test::expectSameMetrics;
using sboram::test::smallSystem;

namespace {

constexpr std::uint64_t kMisses = 1200;
constexpr std::uint64_t kSeed = 99;

std::vector<ExperimentPoint>
samplePoints()
{
    std::vector<ExperimentPoint> points;
    for (const char *wl : {"mcf", "sjeng", "hmmer"}) {
        for (Scheme s :
             {Scheme::Insecure, Scheme::Tiny, Scheme::Shadow}) {
            SystemConfig cfg = smallSystem(s);
            cfg.recordPerMiss = true;
            points.push_back({cfg, wl, kMisses, kSeed});
        }
    }
    return points;
}

} // namespace

TEST(ExperimentRunner, ParallelMatchesSequentialFieldForField)
{
    const std::vector<ExperimentPoint> points = samplePoints();

    ExperimentRunner sequential(1);
    ExperimentRunner parallel(4);
    const std::vector<RunMetrics> seq = sequential.runAll(points);
    const std::vector<RunMetrics> par = parallel.runAll(points);

    ASSERT_EQ(seq.size(), points.size());
    ASSERT_EQ(par.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i) + " (" +
                     points[i].workload + ")");
        expectSameMetrics(seq[i], par[i]);
    }
}

TEST(ExperimentRunner, SequentialMatchesDirectRunWorkload)
{
    const SystemConfig cfg = smallSystem(Scheme::Shadow);
    const RunMetrics direct =
        runWorkload(cfg, "mcf", kMisses, kSeed);

    ExperimentRunner sequential(1);
    const RunMetrics viaRunner =
        sequential.submit(cfg, "mcf", kMisses, kSeed).get();
    expectSameMetrics(direct, viaRunner);
}

TEST(ExperimentRunner, TraceCacheIsPointerStableAndCorrect)
{
    const SharedTrace a = cachedTrace("sjeng", 700, 42);
    const SharedTrace b = cachedTrace("sjeng", 700, 42);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());  // Same cached object.

    // Content identical to an uncached generation.
    const std::vector<LlcMissRecord> fresh =
        makeTrace("sjeng", 700, 42);
    ASSERT_EQ(a->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*a)[i].addr, fresh[i].addr);
        EXPECT_EQ((*a)[i].isWrite, fresh[i].isWrite);
        EXPECT_EQ((*a)[i].computeGap, fresh[i].computeGap);
    }

    // Distinct keys get distinct traces.
    const SharedTrace c = cachedTrace("sjeng", 700, 43);
    EXPECT_NE(a.get(), c.get());
    const SharedTrace d = cachedTrace("mcf", 700, 42);
    EXPECT_NE(a.get(), d.get());
}

TEST(ExperimentRunner, ConcurrentCacheLookupsShareOneTrace)
{
    ExperimentRunner pool(4);
    std::vector<Future<SharedTrace>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.defer(
            [] { return cachedTrace("hmmer", 600, 7); }));
    const SharedTrace first = futures.front().get();
    for (Future<SharedTrace> &f : futures)
        EXPECT_EQ(f.get().get(), first.get());
}

TEST(ExperimentRunner, SubmitTraceUsesProvidedTrace)
{
    const SharedTrace trace = cachedTrace("namd", 500, 11);
    SystemConfig cfg = smallSystem(Scheme::Tiny);

    ExperimentRunner pool(2);
    const RunMetrics viaShared =
        pool.submitTrace(cfg, trace).get();
    const RunMetrics direct = runSystem(cfg, *trace);
    expectSameMetrics(direct, viaShared);
}

TEST(ExperimentRunner, RunAllPreservesSubmissionOrder)
{
    // Points with different workloads produce different request
    // counts; check results line up with their submission slots.
    std::vector<ExperimentPoint> points;
    for (const char *wl : {"mcf", "libquantum", "namd", "gobmk"})
        points.push_back(
            {smallSystem(Scheme::Tiny), wl, 400, kSeed});

    ExperimentRunner pool(4);
    const std::vector<RunMetrics> got = pool.runAll(points);
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunMetrics want = runWorkload(
            points[i].cfg, points[i].workload, 400, kSeed);
        SCOPED_TRACE(points[i].workload);
        expectSameMetrics(want, got[i]);
    }
}

TEST(ExperimentRunner, ThrowingTaskFailsTheFuturePromptly)
{
    // Regression: a worker task that threw used to leave its future
    // value-less forever — every get() deadlocked.  Now the
    // exception is captured and rethrown on the caller's thread.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExperimentRunner pool(threads);
        Future<int> bad = pool.defer(
            []() -> int { throw SimError("task exploded"); });
        Future<int> good = pool.defer([] { return 17; });
        EXPECT_THROW(bad.get(), SimError);
        // A failed future stays failed on repeated get()...
        EXPECT_THROW(bad.get(), SimError);
        // ...and does not poison unrelated tasks.
        EXPECT_EQ(good.get(), 17);
    }
}

TEST(ExperimentRunner, DeferRetryHonoursRetryability)
{
    struct Transient : SimError
    {
        Transient() : SimError("transient") {}
        bool retryable() const override { return true; }
    };

    ExperimentRunner pool(1);

    // Transient failures retry up to the budget, then propagate.
    unsigned calls = 0;
    Future<unsigned> healed = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned attempt) -> unsigned {
            ++calls;
            if (attempt < 2)
                throw Transient();
            return attempt;
        },
        /*retries=*/3);
    EXPECT_EQ(healed.get(), 2u);
    EXPECT_EQ(calls, 3u);

    calls = 0;
    Future<unsigned> exhausted = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned) -> unsigned {
            ++calls;
            throw Transient();
        },
        /*retries=*/2);
    EXPECT_THROW(exhausted.get(), SimError);
    EXPECT_EQ(calls, 3u);  // Initial attempt + 2 retries.

    // Non-retryable errors fail immediately, no second attempt.
    calls = 0;
    Future<unsigned> fatal = pool.deferRetry(
        // sblint:allow-next-line(missing-stats-lock): retry-count probe; future.get() synchronizes before the counter is read
        [&calls](unsigned) -> unsigned {
            ++calls;
            throw SimError("permanent");
        },
        /*retries=*/5);
    EXPECT_THROW(fatal.get(), SimError);
    EXPECT_EQ(calls, 1u);
}

TEST(ExperimentRunner, BackoffScheduleIsDeterministicAndBounded)
{
    RetryPolicy p;
    p.backoffBaseMs = 16;
    p.backoffCapMs = 128;
    p.jitterSeed = 42;
    p.label = "sweep-point-7";

    for (unsigned attempt = 0; attempt < 12; ++attempt) {
        const std::uint64_t d = retryBackoffMs(p, attempt);
        // Pure function of (policy, attempt).
        EXPECT_EQ(d, retryBackoffMs(p, attempt));
        // Exponential term in [base, cap], jitter in [0, base).
        EXPECT_GE(d, p.backoffBaseMs);
        EXPECT_LT(d, p.backoffCapMs + p.backoffBaseMs);
        if (attempt == 0) {
            EXPECT_LT(d, 2u * p.backoffBaseMs);
        }
    }

    // Different jitter seeds decorrelate the schedules: concurrent
    // points retrying the same attempt must not thunder in lockstep.
    RetryPolicy q = p;
    q.jitterSeed = 43;
    bool differs = false;
    for (unsigned attempt = 0; attempt < 12 && !differs; ++attempt)
        differs = retryBackoffMs(p, attempt) != retryBackoffMs(q, attempt);
    EXPECT_TRUE(differs);

    // base 0 keeps the historic immediate-rerun behavior.
    RetryPolicy z = p;
    z.backoffBaseMs = 0;
    EXPECT_EQ(retryBackoffMs(z, 0), 0u);
    EXPECT_EQ(retryBackoffMs(z, 7), 0u);
}

TEST(ExperimentRunner, BudgetExhaustionCarriesTheForensicRecord)
{
    struct Transient : SimError
    {
        Transient() : SimError("transient stripe loss") {}
        bool retryable() const override { return true; }
    };

    ExperimentRunner pool(1);
    RetryPolicy policy;
    policy.retries = 100;       // Attempts won't be the bound.
    policy.backoffBaseMs = 4;
    policy.backoffCapMs = 8;
    policy.budgetMs = 10;       // The ladder trips this first.
    policy.label = "storm/rd phase 2";

    Future<unsigned> f = pool.deferRetry(
        [](unsigned) -> unsigned { throw Transient(); }, policy);
    try {
        f.get();
        FAIL() << "budget exhaustion did not throw";
    } catch (const RetryBudgetExhaustedError &e) {
        EXPECT_EQ(e.label(), policy.label);
        EXPECT_GE(e.attempts(), 1u);
        EXPECT_LE(e.sleptMs(), policy.budgetMs);
        EXPECT_NE(std::string(e.lastError()).find("stripe loss"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(policy.label),
                  std::string::npos);
    }
}

TEST(ExperimentRunner, RetriedPointShiftsOnlyTheFaultSeed)
{
    // retries > 0 must not change attempt 0: a clean point returns
    // bit-identical metrics with or without a retry budget.
    const SystemConfig cfg = smallSystem(Scheme::Shadow);
    ExperimentRunner pool(2);
    const RunMetrics plain =
        pool.submit(cfg, "mcf", kMisses, kSeed).get();
    const RunMetrics withBudget =
        pool.submit(cfg, "mcf", kMisses, kSeed, /*retries=*/3).get();
    expectSameMetrics(plain, withBudget);
}

TEST(ExperimentRunner, DefaultThreadsRespectsEnvironment)
{
    // Only checks the parsing contract: an explicit override wins.
    // (The environment is process-global, so restore it.)
    // sblint:allow-next-line(ambient-nondeterminism): test saves/restores the env var it is exercising
    const char *old = std::getenv("SB_BENCH_THREADS");
    const std::string saved = old ? old : "";

    setenv("SB_BENCH_THREADS", "3", 1);
    EXPECT_EQ(ExperimentRunner::defaultThreads(), 3u);
    setenv("SB_BENCH_THREADS", "1", 1);
    EXPECT_EQ(ExperimentRunner::defaultThreads(), 1u);

    if (old)
        setenv("SB_BENCH_THREADS", saved.c_str(), 1);
    else
        unsetenv("SB_BENCH_THREADS");
}
