#include "DupQueues.hh"

#include <algorithm>

namespace sboram {

bool
DupQueue::better(const DupCandidate &a, const DupCandidate &b) const
{
    if (_rank == Rank::ByLevelDesc) {
        if (a.rearLevel != b.rearLevel)
            return a.rearLevel > b.rearLevel;
    } else {
        if (a.hotness != b.hotness)
            return a.hotness > b.hotness;
    }
    // Newest first: freshly evicted rear data rotates into the
    // prime (near-root) slots; re-offered circulating copies fill
    // what is left.  Oldest-first would ossify the near-root slots
    // on shadows of blocks that are never requested again.
    return a.seq > b.seq;
}

void
DupQueue::push(const DupCandidate &cand)
{
    if (cand.maxLevel >= _buckets.size())
        _buckets.resize(cand.maxLevel + 1);
    Bucket &bucket = _buckets[cand.maxLevel];
    bucket.entries.push_back(Entry{cand, _refills});
    bucket.sorted = false;
    ++_pushed;
    ++_size;
}

void
DupQueue::refill()
{
    // Every entry gains one copy.  drawn never runs more than one
    // epoch ahead of _refills, so afterwards every entry has a copy
    // and each bucket's head restarts at its first entry.
    ++_refills;
    for (Bucket &bucket : _buckets)
        bucket.head = 0;
    _size += _pushed;
}

std::optional<DupCandidate>
DupQueue::popFor(unsigned slotLevel)
{
    // Rule-2: only buckets with maxLevel > slotLevel qualify.  Heads
    // of different buckets are distinct candidates, so the strict
    // minimum over heads is well defined.
    Bucket *best = nullptr;
    for (std::size_t m = slotLevel + 1; m < _buckets.size(); ++m) {
        Bucket &bucket = _buckets[m];
        std::vector<Entry> &entries = bucket.entries;
        if (!bucket.sorted) {
            std::sort(entries.begin(), entries.end(),
                      [this](const Entry &a, const Entry &b) {
                          return better(a.cand, b.cand);
                      });
            bucket.sorted = true;
            bucket.head = 0;
        }
        while (bucket.head < entries.size() &&
               entries[bucket.head].drawn > _refills)
            ++bucket.head;
        if (bucket.head == entries.size())
            continue;
        if (best == nullptr ||
            better(entries[bucket.head].cand,
                   best->entries[best->head].cand))
            best = &bucket;
    }
    if (best == nullptr)
        return std::nullopt;
    Entry &e = best->entries[best->head];
    ++e.drawn;
    --_size;
    return e.cand;
}

void
DupQueue::clear()
{
    for (Bucket &bucket : _buckets) {
        bucket.entries.clear();
        bucket.head = 0;
        bucket.sorted = true;
    }
    _refills = 0;
    _pushed = 0;
    _size = 0;
}

} // namespace sboram
