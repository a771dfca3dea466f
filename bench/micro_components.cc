/**
 * @file
 * Google-benchmark microbenchmarks of the substrates: PRF/OTP codec,
 * DRAM path scheduling, stash operations, PLB, recursive position
 * map resolution, duplication queues, workload generation, and a
 * whole ORAM access.
 */

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "common/Rng.hh"
#include "crypto/Otp.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"
#include "oram/Plb.hh"
#include "oram/RecursivePosMap.hh"
#include "oram/Stash.hh"
#include "oram/TinyOram.hh"
#include "shadow/DupQueues.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/OramStack.hh"
#include "workload/SpecProfiles.hh"

using namespace sboram;

namespace {

void
BM_Prf64(benchmark::State &state)
{
    PrfKey key;
    std::uint64_t n = 0;
    for (auto _ : state) {
        ++n;
        benchmark::DoNotOptimize(prf64(key, n, n & 7));
    }
}
BENCHMARK(BM_Prf64);

void
BM_OtpEncryptBlock(benchmark::State &state)
{
    OtpCodec codec;
    std::vector<std::uint64_t> block(8, 0x1234567890abcdefULL);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.encrypt(block));
}
BENCHMARK(BM_OtpEncryptBlock);

void
BM_DramPathRead(benchmark::State &state)
{
    DramModel dram(DramTiming::ddr3_1333(), DramGeometry{});
    const unsigned leafLevel = 18, z = 5;
    AddressMap map(DramGeometry{}, leafLevel + 1, z);
    std::vector<DramCoord> buckets;
    Cycles t = 0;
    for (auto _ : state) {
        // What TinyOram::pathRead runs: one coordinate per bucket,
        // then the per-block schedule.
        buckets.clear();
        for (unsigned level = 0; level <= leafLevel; ++level)
            buckets.push_back(
                map.mapBucket(((BucketIndex(1) << level) - 1) +
                              (0x15555u >> (leafLevel - level))));
        t = dram.accessPath(t, buckets, z, false).finish;
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_DramPathRead);

void
BM_StashInsertFind(benchmark::State &state)
{
    Stash stash(200);
    Rng rng(1);
    std::uint64_t i = 0;
    for (auto _ : state) {
        StashEntry e;
        e.addr = i++ % 512;
        e.type = BlockType::Shadow;
        stash.insert(std::move(e));
        benchmark::DoNotOptimize(stash.find(rng.below(512)));
    }
}
BENCHMARK(BM_StashInsertFind);

void
BM_StashEligibleScan(benchmark::State &state)
{
    Stash stash(200);
    Rng rng(2);
    for (int i = 0; i < 180; ++i) {
        StashEntry e;
        e.addr = static_cast<Addr>(i);
        e.leaf = rng.below(1 << 18);
        e.type = i % 3 ? BlockType::Real : BlockType::Shadow;
        stash.insert(std::move(e));
    }
    for (auto _ : state) {
        auto v = stash.eligibleForLevel(
            4, [](LeafLabel leaf) {
                return static_cast<unsigned>(leaf % 19);
            });
        benchmark::DoNotOptimize(v.size());
    }
}
BENCHMARK(BM_StashEligibleScan);

void
BM_PlbLookup(benchmark::State &state)
{
    Plb plb(64 * 1024, 64);
    Rng rng(3);
    for (Addr a = 0; a < 1024; ++a)
        plb.insert(a);
    for (auto _ : state)
        benchmark::DoNotOptimize(plb.lookup(rng.below(2048)));
}
BENCHMARK(BM_PlbLookup);

void
BM_RecursiveResolve(benchmark::State &state)
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 20;
    RecursivePosMap rec(cfg);
    Plb plb(64 * 1024, 64);
    Rng rng(4);
    for (auto _ : state) {
        auto chain = rec.resolve(rng.below(1 << 20), plb);
        benchmark::DoNotOptimize(chain.size());
    }
}
BENCHMARK(BM_RecursiveResolve);

void
BM_DupQueuePushPop(benchmark::State &state)
{
    // A candidate set sized like mcf_shadow_payload's ~70 per miss
    // (59 stash-shadow offers + 11 placements) spread over the L+2
    // maxLevel buckets, popped for dummy slots root side first (as
    // the path write's shadow-fill pass does), with a refill
    // whenever the queue runs dry for a slot.
    const unsigned leafLevel = 15;
    const int candidates = 70;
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    Rng rng(5);
    std::uint64_t seq = 0;
    for (auto _ : state) {
        for (int i = 0; i < candidates; ++i) {
            DupCandidate c;
            c.addr = static_cast<Addr>(i);
            c.rearLevel = static_cast<unsigned>(rng.below(leafLevel + 1));
            c.maxLevel = static_cast<unsigned>(rng.below(leafLevel + 2));
            c.seq = seq++;
            q.push(c);
        }
        for (int i = 0; i < candidates; ++i) {
            const auto slot = static_cast<unsigned>(
                (i * (leafLevel + 1)) / candidates);
            std::optional<DupCandidate> got = q.popFor(slot);
            if (!got) {
                q.refill();
                got = q.popFor(slot);
            }
            benchmark::DoNotOptimize(got);
        }
        q.clear();
    }
}
BENCHMARK(BM_DupQueuePushPop);

void
BM_StashDisplaceAtCapacity(benchmark::State &state)
{
    // A full 200-entry stash of shadows ranked by a live Hot Address
    // Cache: every insert displaces the coldest shadow.  range(0)
    // inserts share one LLC miss (one hotness invalidation), so the
    // two arguments bracket the re-key cost against the heap cost.
    const unsigned capacity = 200;
    const auto insertsPerMiss = static_cast<int>(state.range(0));
    ShadowPolicy policy(ShadowConfig{}, 15);
    Stash stash(capacity);
    stash.setHotnessOracle(&policy);
    Rng rng(7);
    Addr next = 0;
    auto insertShadow = [&] {
        StashEntry e;
        e.addr = next++;
        e.type = BlockType::Shadow;
        stash.insert(std::move(e));
    };
    for (unsigned i = 0; i < capacity; ++i)
        insertShadow();
    for (auto _ : state) {
        policy.onLlcMiss(next - rng.below(capacity));
        stash.invalidateHotness();
        for (int i = 0; i < insertsPerMiss; ++i)
            insertShadow();
        benchmark::DoNotOptimize(stash.size());
    }
    state.SetItemsProcessed(state.iterations() * insertsPerMiss);
}
BENCHMARK(BM_StashDisplaceAtCapacity)->Arg(1)->Arg(16);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        WorkloadGenerator gen(specProfile("hmmer"), 1);
        benchmark::DoNotOptimize(gen.generate(1000).size());
    }
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_OramAccess(benchmark::State &state)
{
    OramConfig cfg;
    cfg.dataBlocks = 1 << 14;
    cfg.posMapMode = PosMapMode::OnChip;
    OramStack stack(Scheme::Shadow, cfg);
    TinyOram &oram = stack.oram();
    Rng rng(6);
    Cycles t = 0;
    for (auto _ : state) {
        AccessResult r =
            oram.access(rng.below(1 << 14), Op::Read, t + 100);
        t = r.completeAt;
        benchmark::DoNotOptimize(r.forwardAt);
    }
}
BENCHMARK(BM_OramAccess);

} // namespace

BENCHMARK_MAIN();
