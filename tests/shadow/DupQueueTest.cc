#include <gtest/gtest.h>

#include "common/Rng.hh"
#include "shadow/DupQueues.hh"

using namespace sboram;

namespace {

DupCandidate
cand(Addr addr, unsigned level, std::uint32_t hot, std::uint64_t seq)
{
    DupCandidate c;
    c.addr = addr;
    c.rearLevel = level;
    c.maxLevel = level;
    c.hotness = hot;
    c.seq = seq;
    return c;
}

} // namespace

TEST(DupQueue, RdOrderIsDeepestFirst)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    q.push(cand(2, 12, 0, 1));
    q.push(cand(3, 8, 0, 2));
    auto first = q.popFor(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->addr, 2u);
    EXPECT_EQ(q.popFor(0)->addr, 3u);
    EXPECT_EQ(q.popFor(0)->addr, 1u);
    EXPECT_FALSE(q.popFor(0).has_value());
}

TEST(DupQueue, HdOrderIsHottestFirst)
{
    DupQueue q(DupQueue::Rank::ByHotnessDesc);
    q.push(cand(1, 5, 3, 0));
    q.push(cand(2, 9, 100, 1));
    q.push(cand(3, 7, 10, 2));
    EXPECT_EQ(q.popFor(0)->addr, 2u);
    EXPECT_EQ(q.popFor(0)->addr, 3u);
    EXPECT_EQ(q.popFor(0)->addr, 1u);
}

TEST(DupQueue, Rule2FiltersShallowCandidates)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 3, 0, 0));
    // A dummy slot at level 3 cannot duplicate a block at level 3
    // (must be strictly deeper) …
    EXPECT_FALSE(q.popFor(3).has_value());
    // … but a slot at level 2 can.
    EXPECT_TRUE(q.popFor(2).has_value());
}

TEST(DupQueue, HdSkipsHottestWhenTooShallow)
{
    DupQueue q(DupQueue::Rank::ByHotnessDesc);
    q.push(cand(1, 2, 100, 0));  // hottest but shallow
    q.push(cand(2, 9, 5, 1));
    auto got = q.popFor(4);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->addr, 2u);
    EXPECT_EQ(q.size(), 1u);  // The hot one stays queued.
}

TEST(DupQueue, TiesBreakNewestFirst)
{
    // Freshly evicted rear data outranks older circulating copies at
    // equal priority, so the prime slots rotate over recent
    // evictions instead of ossifying.
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(10, 6, 0, 0));
    q.push(cand(11, 6, 0, 1));
    EXPECT_EQ(q.popFor(0)->addr, 11u);
    EXPECT_EQ(q.popFor(0)->addr, 10u);
}

TEST(DupQueue, ClearEmpties)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    q.clear();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.popFor(0).has_value());
}

TEST(DupQueue, PopConsumesCandidate)
{
    DupQueue q(DupQueue::Rank::ByLevelDesc);
    q.push(cand(1, 5, 0, 0));
    EXPECT_TRUE(q.popFor(1).has_value());
    EXPECT_FALSE(q.popFor(1).has_value());
}

namespace {

/**
 * Reference oracle: the unbucketed queue — an unsorted vector with a
 * scan-min over the qualifying candidates at pop time.
 */
class ScanDupQueue
{
  public:
    explicit ScanDupQueue(DupQueue::Rank rank) : _rank(rank) {}

    void push(const DupCandidate &c) { _items.push_back(c); }
    void clear() { _items.clear(); }
    std::size_t size() const { return _items.size(); }

    std::optional<DupCandidate>
    popFor(unsigned slotLevel)
    {
        std::size_t best = _items.size();
        for (std::size_t i = 0; i < _items.size(); ++i) {
            if (_items[i].maxLevel <= slotLevel)
                continue;
            if (best == _items.size() || better(_items[i], _items[best]))
                best = i;
        }
        if (best == _items.size())
            return std::nullopt;
        DupCandidate c = _items[best];
        _items[best] = _items.back();
        _items.pop_back();
        return c;
    }

  private:
    bool
    better(const DupCandidate &a, const DupCandidate &b) const
    {
        if (_rank == DupQueue::Rank::ByLevelDesc) {
            if (a.rearLevel != b.rearLevel)
                return a.rearLevel > b.rearLevel;
        } else if (a.hotness != b.hotness) {
            return a.hotness > b.hotness;
        }
        return a.seq > b.seq;
    }

    DupQueue::Rank _rank;
    std::vector<DupCandidate> _items;
};

void
expectSameCandidate(const std::optional<DupCandidate> &got,
                    const std::optional<DupCandidate> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want)
        return;
    EXPECT_EQ(got->addr, want->addr);
    EXPECT_EQ(got->leaf, want->leaf);
    EXPECT_EQ(got->version, want->version);
    EXPECT_EQ(got->rearLevel, want->rearLevel);
    EXPECT_EQ(got->maxLevel, want->maxLevel);
    EXPECT_EQ(got->hotness, want->hotness);
    EXPECT_EQ(got->seq, want->seq);
}

} // namespace

TEST(DupQueue, MatchesScanMinReferenceOnRandomSequences)
{
    // Random push / popFor / refill / clear sequences, both ranks,
    // with narrow priority ranges (many ties broken by seq), refill
    // and pushed copies that duplicate queued candidates, and
    // maxLevel up to L+1.  Every pop must equal the reference's
    // scan-min, where a refill is one push per candidate offered
    // since the last clear.
    const unsigned leafLevel = 12;
    for (DupQueue::Rank rank :
         {DupQueue::Rank::ByLevelDesc, DupQueue::Rank::ByHotnessDesc}) {
        Rng rng(rank == DupQueue::Rank::ByLevelDesc ? 41 : 42);
        DupQueue q(rank);
        ScanDupQueue ref(rank);
        std::vector<DupCandidate> offered;  // Pushed since the clear.
        std::uint64_t seq = 0;
        for (int step = 0; step < 20000; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const std::uint64_t op = rng.below(100);
            if (op < 5 && !offered.empty()) {
                // A field-identical copy pushed directly.
                const DupCandidate c = offered[rng.below(offered.size())];
                q.push(c);
                ref.push(c);
                offered.push_back(c);
            } else if (op < 45) {
                DupCandidate c;
                c.addr = rng.below(64);
                c.leaf = rng.below(1u << leafLevel);
                c.version = static_cast<std::uint32_t>(rng.below(4));
                c.rearLevel = static_cast<unsigned>(rng.below(leafLevel + 1));
                c.maxLevel = static_cast<unsigned>(rng.below(leafLevel + 2));
                c.hotness = static_cast<std::uint32_t>(rng.below(4));
                c.seq = seq++;
                q.push(c);
                ref.push(c);
                offered.push_back(c);
            } else if (op < 90) {
                const auto slot =
                    static_cast<unsigned>(rng.below(leafLevel + 1));
                expectSameCandidate(q.popFor(slot), ref.popFor(slot));
            } else if (op < 97) {
                // Refill: one more copy of everything pushed so far.
                q.refill();
                for (const DupCandidate &c : offered)
                    ref.push(c);
            } else {
                q.clear();
                ref.clear();
                offered.clear();
            }
            ASSERT_EQ(q.size(), ref.size());
        }
    }
}
