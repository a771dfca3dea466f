#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/Rng.hh"
#include "oram/Stash.hh"

using namespace sboram;

namespace {

StashEntry
entry(Addr addr, BlockType type, std::uint32_t version = 0,
      LeafLabel leaf = 0)
{
    StashEntry e;
    e.addr = addr;
    e.type = type;
    e.version = version;
    e.leaf = leaf;
    return e;
}

} // namespace

TEST(Stash, InsertAndFind)
{
    Stash stash(10);
    EXPECT_TRUE(stash.insert(entry(5, BlockType::Real)));
    ASSERT_NE(stash.find(5), nullptr);
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.find(6), nullptr);
    EXPECT_EQ(stash.realCount(), 1u);
}

TEST(Stash, MergeRealWinsOverShadow)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Shadow, 3));
    EXPECT_TRUE(stash.insert(entry(5, BlockType::Real, 3)));
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(stash.stats().mergesRealWins, 1u);
}

TEST(Stash, MergeShadowDiscardedWhenRealPresent)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Real, 7));
    EXPECT_FALSE(stash.insert(entry(5, BlockType::Shadow, 3)));
    EXPECT_EQ(stash.find(5)->type, BlockType::Real);
    EXPECT_EQ(stash.find(5)->version, 7u);
}

TEST(Stash, MergeDuplicateShadowsCollapse)
{
    Stash stash(10);
    stash.insert(entry(5, BlockType::Shadow, 2));
    EXPECT_FALSE(stash.insert(entry(5, BlockType::Shadow, 2)));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(stash.stats().mergesShadowDup, 1u);
}

TEST(Stash, ShadowsDoNotCountAgainstCapacity)
{
    Stash stash(4);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Shadow));
    stash.insert(entry(3, BlockType::Shadow));
    EXPECT_EQ(stash.realCount(), 1u);
    EXPECT_EQ(stash.shadowCount(), 2u);
    EXPECT_EQ(stash.stats().overflowEvents, 0u);
}

TEST(Stash, OldestShadowDisplacedWhenFull)
{
    Stash stash(3);
    stash.insert(entry(1, BlockType::Shadow));
    stash.insert(entry(2, BlockType::Shadow));
    stash.insert(entry(3, BlockType::Shadow));
    stash.insert(entry(4, BlockType::Real));
    // Capacity 3: the oldest shadow (addr 1) must have been evicted.
    EXPECT_EQ(stash.size(), 3u);
    EXPECT_EQ(stash.find(1), nullptr);
    EXPECT_NE(stash.find(4), nullptr);
}

TEST(Stash, OverflowCountedWhenRealsExceedCapacity)
{
    Stash stash(2);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Real));
    EXPECT_EQ(stash.stats().overflowEvents, 0u);
    stash.insert(entry(3, BlockType::Real));
    EXPECT_GE(stash.stats().overflowEvents, 1u);
    EXPECT_EQ(stash.stats().peakReal, 3u);
}

TEST(Stash, IndexGrowsPastCapacityAndSurvivesRemovals)
{
    // Reals beyond the capacity grow the addr index several times;
    // removals (backward-shift deletion) must keep every remaining
    // address findable, including ones whose probe run crossed a
    // removed cell.
    Rng rng(9);
    std::vector<Addr> addrs;
    std::set<Addr> seen;
    while (addrs.size() < 300) {
        const Addr a = rng.below(1 << 20);
        if (seen.insert(a).second)
            addrs.push_back(a);
    }
    Stash stash(2);
    for (Addr a : addrs)
        stash.insert(entry(a, BlockType::Real));
    for (std::size_t i = 0; i < addrs.size(); i += 2)
        stash.remove(addrs[i]);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const StashEntry *e = stash.find(addrs[i]);
        ASSERT_EQ(e != nullptr, i % 2 == 1) << i;
        if (e) {
            EXPECT_EQ(e->addr, addrs[i]);
        }
    }
    EXPECT_EQ(stash.size(), 150u);
}

TEST(Stash, RemoveUpdatesCounts)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real));
    stash.insert(entry(2, BlockType::Shadow));
    stash.remove(1);
    EXPECT_EQ(stash.realCount(), 0u);
    EXPECT_EQ(stash.size(), 1u);
    stash.remove(2);
    EXPECT_EQ(stash.size(), 0u);
}

TEST(Stash, DropShadowOfLeavesRealAlone)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real));
    stash.dropShadowOf(1);
    EXPECT_NE(stash.find(1), nullptr);
    stash.insert(entry(2, BlockType::Shadow));
    stash.dropShadowOf(2);
    EXPECT_EQ(stash.find(2), nullptr);
}

TEST(Stash, EligibleRealsBeforeShadowsInSeqOrder)
{
    Stash stash(10);
    stash.insert(entry(10, BlockType::Shadow, 0, 0));
    stash.insert(entry(11, BlockType::Real, 0, 0));
    stash.insert(entry(12, BlockType::Real, 0, 0));
    auto eligible =
        stash.eligibleForLevel(0, [](LeafLabel) { return 5u; });
    ASSERT_EQ(eligible.size(), 3u);
    EXPECT_EQ(eligible[0], 11u);
    EXPECT_EQ(eligible[1], 12u);
    EXPECT_EQ(eligible[2], 10u);
}

TEST(Stash, EligibleFiltersByCommonLevel)
{
    Stash stash(10);
    stash.insert(entry(1, BlockType::Real, 0, /*leaf=*/0b0000));
    stash.insert(entry(2, BlockType::Real, 0, /*leaf=*/0b1000));
    auto eligible = stash.eligibleForLevel(
        2, [](LeafLabel leaf) { return leaf == 0 ? 4u : 1u; });
    ASSERT_EQ(eligible.size(), 1u);
    EXPECT_EQ(eligible[0], 1u);
}

namespace {

/** Common-prefix length of two leaf labels in a depth-L tree
 *  (mirrors OramTree::commonLevel without needing a tree). */
unsigned
commonLevel(LeafLabel a, LeafLabel b, unsigned leafLevel)
{
    const std::uint64_t diff = a ^ b;
    if (diff == 0)
        return leafLevel;
    return leafLevel - (64 - __builtin_clzll(diff));
}

/** Fill a stash with random real/shadow entries at random leaves. */
void
fillRandom(Stash &stash, Rng &rng, unsigned count, unsigned leafLevel)
{
    for (unsigned i = 0; i < count; ++i) {
        const BlockType type =
            rng.chance(0.4) ? BlockType::Shadow : BlockType::Real;
        stash.insert(entry(/*addr=*/1000 + i, type, 0,
                           rng.below(LeafLabel(1) << leafLevel)));
    }
}

/** The reals-first reference order cut to its real prefix: the
 *  plan holds reals only, since greedy eviction places no shadow.
 *  Everything after the prefix must be a shadow. */
std::vector<Addr>
realPrefix(const Stash &stash, std::vector<Addr> addrs)
{
    std::size_t n = 0;
    while (n < addrs.size() && !stash.find(addrs[n])->isShadow())
        ++n;
    for (std::size_t i = n; i < addrs.size(); ++i)
        EXPECT_TRUE(stash.find(addrs[i])->isShadow()) << "reals first";
    addrs.resize(n);
    return addrs;
}

} // namespace

TEST(Stash, PlanEvictionMatchesReferenceAtEveryLevel)
{
    // The one-pass plan must report exactly the real prefix of the
    // per-level eligible sequences the reference rescan produces,
    // for random contents.
    const unsigned leafLevel = 6;
    Rng rng(2024);
    for (int round = 0; round < 50; ++round) {
        Stash stash(4096);
        fillRandom(stash, rng, 1 + rng.below(60), leafLevel);
        const LeafLabel evictLeaf =
            rng.below(LeafLabel(1) << leafLevel);
        auto fn = [&](LeafLabel leaf) {
            return commonLevel(leaf, evictLeaf, leafLevel);
        };

        Stash::EvictionPlan plan = stash.planEviction(fn);
        for (unsigned level = 0; level <= leafLevel; ++level) {
            SCOPED_TRACE("round " + std::to_string(round) +
                         " level " + std::to_string(level));
            EXPECT_EQ(plan.eligibleForLevel(level),
                      realPrefix(stash,
                                 stash.eligibleForLevel(level, fn)));
        }
    }
}

TEST(Stash, PlanEvictionConsumptionMatchesShrinkingStash)
{
    // A path write walks leaf -> root placing up to Z reals per
    // bucket and removing them from the stash.  The plan's placed
    // flags must reproduce re-running the reference (its real
    // prefix) against the shrinking stash.
    const unsigned leafLevel = 5;
    const unsigned Z = 3;
    Rng rng(777);
    for (int round = 0; round < 30; ++round) {
        Stash stash(4096);
        fillRandom(stash, rng, 1 + rng.below(50), leafLevel);
        const LeafLabel evictLeaf =
            rng.below(LeafLabel(1) << leafLevel);
        auto fn = [&](LeafLabel leaf) {
            return commonLevel(leaf, evictLeaf, leafLevel);
        };

        Stash::EvictionPlan plan = stash.planEviction(fn);
        for (int level = static_cast<int>(leafLevel); level >= 0;
             --level) {
            // Reference: first Z reals of a fresh rescan of the live
            // stash.
            std::vector<Addr> want = realPrefix(
                stash,
                stash.eligibleForLevel(static_cast<unsigned>(level), fn));
            if (want.size() > Z)
                want.resize(Z);

            std::vector<Addr> got;
            plan.forEachEligible(
                static_cast<unsigned>(level),
                [&](Stash::PlanEntry &cand) {
                    if (got.size() >= Z)
                        return false;
                    got.push_back(cand.addr);
                    cand.placed = true;
                    return true;
                });

            SCOPED_TRACE("round " + std::to_string(round) +
                         " level " + std::to_string(level));
            EXPECT_EQ(got, want);
            for (Addr a : got)
                stash.remove(a);
        }
    }
}

namespace {

/** Mutable hotness oracle; the tests call invalidateHotness() or
 *  rekey() after every change, as the controller does after
 *  onLlcMiss. */
class FakeHotness : public DuplicationPolicy
{
  public:
    std::optional<ShadowChoice>
    selectShadow(unsigned) override
    {
        return std::nullopt;
    }

    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        return hot[addr];
    }

    std::vector<std::uint32_t> hot = std::vector<std::uint32_t>(64, 0);
};

/**
 * Reference oracle: the stash as a plain map with the linear
 * displacement scan — evict the shadow with the minimum (hotness,
 * seq), re-reading every shadow's hotness on every displacement.
 */
struct ScanStash
{
    struct Item
    {
        BlockType type;
        std::uint64_t seq;
    };

    unsigned capacity;
    const FakeHotness *oracle;
    std::uint64_t nextSeq = 0;
    std::map<Addr, Item> items;

    /** Insert with the merge rules; returns the number displaced. */
    unsigned
    insert(Addr addr, BlockType type)
    {
        const std::uint64_t seq = nextSeq++;
        auto it = items.find(addr);
        if (it != items.end()) {
            if (type == BlockType::Real)
                it->second = Item{type, seq};  // Real replaces shadow.
            return 0;                          // Shadow merges away.
        }
        items[addr] = Item{type, seq};
        unsigned displaced = 0;
        while (items.size() > capacity) {
            auto victim = items.end();
            for (auto e = items.begin(); e != items.end(); ++e) {
                if (e->second.type != BlockType::Shadow)
                    continue;
                if (victim == items.end() ||
                    std::make_pair(oracle->hotnessOf(e->first),
                                   e->second.seq) <
                        std::make_pair(oracle->hotnessOf(victim->first),
                                       victim->second.seq))
                    victim = e;
            }
            if (victim == items.end())
                break;
            items.erase(victim);
            ++displaced;
        }
        return displaced;
    }
};

/** (addr, type, seq) of every entry, sorted by address; also checks
 *  that forEach visits in seq order. */
std::vector<std::tuple<Addr, BlockType, std::uint64_t>>
contents(const Stash &stash)
{
    std::vector<std::tuple<Addr, BlockType, std::uint64_t>> v;
    std::uint64_t lastSeq = 0;
    stash.forEach([&](const StashEntry &e) {
        EXPECT_TRUE(v.empty() || e.seq > lastSeq) << "seq order";
        lastSeq = e.seq;
        v.emplace_back(e.addr, e.type, e.seq);
    });
    std::sort(v.begin(), v.end());
    return v;
}

std::vector<std::tuple<Addr, BlockType, std::uint64_t>>
contents(const ScanStash &ref)
{
    std::vector<std::tuple<Addr, BlockType, std::uint64_t>> v;
    for (const auto &[addr, item] : ref.items)
        v.emplace_back(addr, item.type, item.seq);
    return v;
}

std::vector<std::uint8_t>
saveBytes(const Stash &stash)
{
    ckpt::Serializer out;
    stash.saveState(out);
    return out.take();
}

void
loadBytes(Stash &stash, const std::vector<std::uint8_t> &bytes)
{
    ckpt::Deserializer in(bytes.data(), bytes.size());
    stash.loadState(in);
}

/** How a random walk tells the stash that one oracle value moved. */
enum class KeyUpdate { Invalidate, Rekey };

/**
 * Random insert / remove / dropShadowOf / real-replaces-shadow /
 * save-restore sequences against a mutable hotness oracle with few
 * distinct values (many ties broken by seq).  After every operation
 * the stash must hold exactly what the linear-scan reference holds,
 * so every displacement victim is the full (hotness, seq) scan-min.
 */
void
checkDisplacementAgainstScanMin(KeyUpdate update)
{
    const unsigned capacity = 16;
    const Addr addrs = 64;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        FakeHotness oracle;
        auto stash = std::make_unique<Stash>(capacity);
        stash->setHotnessOracle(&oracle);
        ScanStash ref{capacity, &oracle, 0, {}};
        std::vector<std::uint8_t> snap = saveBytes(*stash);
        ScanStash refSnap = ref;
        std::uint64_t displacements = 0;

        for (int step = 0; step < 6000; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const Addr addr = rng.below(addrs);
            const StashEntry *cur = stash->find(addr);
            const std::uint64_t op = rng.below(100);
            if (op < 40) {
                // A shadow, or a real block where no real copy is
                // resident (possibly replacing a shadow).
                const BlockType type =
                    (cur && cur->type == BlockType::Real) ||
                            rng.chance(0.7)
                        ? BlockType::Shadow
                        : BlockType::Real;
                stash->insert(entry(addr, type));
                displacements += ref.insert(addr, type);
            } else if (op < 55) {
                if (cur) {
                    stash->remove(addr);
                    ref.items.erase(addr);
                }
            } else if (op < 65) {
                stash->dropShadowOf(addr);
                auto it = ref.items.find(addr);
                if (it != ref.items.end() &&
                    it->second.type == BlockType::Shadow)
                    ref.items.erase(it);
            } else if (op < 90) {
                oracle.hot[addr] =
                    static_cast<std::uint32_t>(rng.below(4));
                if (update == KeyUpdate::Rekey)
                    stash->rekey(addr);
                else
                    stash->invalidateHotness();
            } else if (op < 94) {
                snap = saveBytes(*stash);
                refSnap = ref;
            } else if (op < 97) {
                // Rollback onto the live stash; the oracle keeps its
                // current values (loadState marks the cache stale).
                oracle.hot[addr] =
                    static_cast<std::uint32_t>(rng.below(4));
                loadBytes(*stash, snap);
                ref = refSnap;
            } else {
                // Restore into a fresh stash (checkpoint resume).
                auto fresh = std::make_unique<Stash>(capacity);
                fresh->setHotnessOracle(&oracle);
                loadBytes(*fresh, saveBytes(*stash));
                stash = std::move(fresh);
            }
            ASSERT_EQ(contents(*stash), contents(ref));
            ASSERT_EQ(stash->inserts(), ref.nextSeq);
        }
        EXPECT_GT(displacements, 500u);
    }
}

} // namespace

TEST(Stash, DisplacementMatchesScanMinReference)
{
    // Each oracle change marks every cached key stale.
    checkDisplacementAgainstScanMin(KeyUpdate::Invalidate);
}

TEST(Stash, DisplacementMatchesScanMinReferenceWithRekey)
{
    // Each oracle change re-keys only the address it moved, as the
    // controller does after an LLC miss; a restore still marks every
    // key stale, and rekey must leave that pending refresh alone.
    checkDisplacementAgainstScanMin(KeyUpdate::Rekey);
}

namespace {

/** The seq of every entry a snapshot lists, in snapshot order. */
std::vector<std::uint64_t>
snapshotSeqs(const std::vector<std::uint8_t> &bytes)
{
    ckpt::Deserializer in(bytes.data(), bytes.size());
    in.skip(6 * 8);  // next seq, real count, stats
    std::vector<std::uint64_t> seqs(in.u64());
    for (std::uint64_t &seq : seqs) {
        in.skip(8 + 8 + 4 + 1);  // addr, leaf, version, type
        seq = in.u64();
        EXPECT_TRUE(in.vecU64().empty());  // No payloads here.
    }
    EXPECT_TRUE(in.atEnd());
    return seqs;
}

bool
strictlyIncreasing(const std::vector<std::uint64_t> &v)
{
    return std::adjacent_find(v.begin(), v.end(),
                              std::greater_equal<>()) == v.end();
}

} // namespace

TEST(Stash, ClassListsStayInSeqOrderUnderRandomOps)
{
    // The stash keeps reals and shadows on separate seq-ordered
    // lists.  Over random insert / remove / dropShadowOf /
    // real-replaces-shadow / save-restore sequences: forEach and the
    // snapshot visit strictly increasing seq, forEachShadow yields
    // exactly the shadows and the eviction plan exactly the reals
    // (each in seq order), and save -> load -> save is byte-equal.
    const unsigned capacity = 24;
    const Addr addrs = 40;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        auto stash = std::make_unique<Stash>(capacity);
        std::vector<std::uint8_t> snap = saveBytes(*stash);
        std::uint64_t replacements = 0;
        for (int step = 0; step < 4000; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const Addr addr = rng.below(addrs);
            const StashEntry *cur = stash->find(addr);
            const std::uint64_t op = rng.below(100);
            if (op < 50) {
                // A real copy never meets a real; over a resident
                // shadow it is the real-replaces-shadow move.
                const bool real = cur ? cur->isShadow() && rng.chance(0.6)
                                      : rng.chance(0.3);
                replacements += real && cur != nullptr;
                stash->insert(entry(addr,
                                    real ? BlockType::Real
                                         : BlockType::Shadow,
                                    0, rng.below(64)));
            } else if (op < 75) {
                if (cur)
                    stash->remove(addr);
            } else if (op < 85) {
                stash->dropShadowOf(addr);
            } else if (op < 92) {
                snap = saveBytes(*stash);
            } else if (op < 96) {
                loadBytes(*stash, snap);  // Rollback in place.
            } else {
                auto fresh = std::make_unique<Stash>(capacity);
                loadBytes(*fresh, saveBytes(*stash));
                stash = std::move(fresh);
            }

            std::vector<std::uint64_t> all;
            std::vector<std::pair<std::uint64_t, Addr>> reals, shadows;
            stash->forEach([&](const StashEntry &e) {
                all.push_back(e.seq);
                (e.isShadow() ? shadows : reals)
                    .emplace_back(e.seq, e.addr);
            });
            ASSERT_TRUE(strictlyIncreasing(all));
            ASSERT_EQ(all.size(), stash->size());

            const std::vector<std::uint8_t> bytes = saveBytes(*stash);
            ASSERT_EQ(snapshotSeqs(bytes), all);

            std::vector<std::pair<std::uint64_t, Addr>> visited;
            stash->forEachShadow([&](const StashEntry &e) {
                ASSERT_TRUE(e.isShadow());
                visited.emplace_back(e.seq, e.addr);
            });
            ASSERT_EQ(visited, shadows);

            std::vector<Addr> realAddrs;
            for (const auto &r : reals)
                realAddrs.push_back(r.second);
            const Stash::EvictionPlan plan =
                stash->planEviction([](LeafLabel) { return 0u; });
            ASSERT_EQ(plan.eligibleForLevel(0), realAddrs);

            Stash copy(capacity);
            loadBytes(copy, bytes);
            ASSERT_EQ(saveBytes(copy), bytes);
        }
        EXPECT_GT(replacements, 100u);
    }
}

TEST(Stash, LoadRejectsEntriesOutOfSeqOrder)
{
    // A snapshot lists entries in seq order; the stash's entry list
    // relies on it, so a reordered list is a mismatch, not a stash.
    ckpt::Serializer out;
    out.u64(10);  // next seq
    out.u64(0);   // real count
    for (int i = 0; i < 4; ++i)
        out.u64(0);  // stats
    out.u64(2);
    for (std::uint64_t seq : {5u, 3u}) {
        out.u64(seq);  // addr
        out.u64(0);    // leaf
        out.u32(0);    // version
        out.u8(static_cast<std::uint8_t>(BlockType::Shadow));
        out.u64(seq);
        out.vecU64({});
    }
    const std::vector<std::uint8_t> bytes = out.take();
    Stash stash(8);
    EXPECT_THROW(loadBytes(stash, bytes), CkptMismatchError);
}

namespace {

/** A stash section holding @p entries (addr, type, seq) and claiming
 *  @p realCount reals. */
std::vector<std::uint8_t>
stashSection(
    std::uint64_t realCount,
    std::initializer_list<std::tuple<Addr, BlockType, std::uint64_t>>
        entries)
{
    ckpt::Serializer out;
    out.u64(10);  // next seq
    out.u64(realCount);
    for (int i = 0; i < 4; ++i)
        out.u64(0);  // stats
    out.u64(entries.size());
    for (const auto &[addr, type, seq] : entries) {
        out.u64(addr);
        out.u64(0);  // leaf
        out.u32(0);  // version
        out.u8(static_cast<std::uint8_t>(type));
        out.u64(seq);
        out.vecU64({});
    }
    return out.take();
}

} // namespace

TEST(Stash, LoadRejectsDuplicateAddress)
{
    // Two entries for one address would break the one-entry-per-
    // address merge invariant; linking the same entry twice would
    // also turn the seq list into a cycle.
    Stash stash(8);
    EXPECT_THROW(loadBytes(stash, stashSection(0, {
                     {4, BlockType::Shadow, 1},
                     {4, BlockType::Shadow, 2}})),
                 CkptMismatchError);
    EXPECT_THROW(loadBytes(stash, stashSection(1, {
                     {4, BlockType::Shadow, 1},
                     {4, BlockType::Real, 2}})),
                 CkptMismatchError);

    // The legal section still loads into the same stash afterwards.
    loadBytes(stash, stashSection(1, {{4, BlockType::Real, 1},
                                      {5, BlockType::Shadow, 2}}));
    EXPECT_EQ(stash.size(), 2u);
    unsigned visited = 0;
    stash.forEach([&](const StashEntry &) { ++visited; });
    EXPECT_EQ(visited, 2u);
}

TEST(Stash, LoadRejectsRealCountMismatch)
{
    Stash stash(8);
    EXPECT_THROW(loadBytes(stash, stashSection(2, {
                     {4, BlockType::Real, 1},
                     {5, BlockType::Shadow, 2}})),
                 CkptMismatchError);
    // The index's empty-cell marker is not an address.
    EXPECT_THROW(loadBytes(stash, stashSection(0, {
                     {kInvalidAddr, BlockType::Shadow, 1}})),
                 CkptMismatchError);
}
