#include "Stash.hh"

namespace sboram {

namespace {

/** Heap order: colder first, then older (seq is unique). */
bool
colder(const StashEntry *a, const StashEntry *b)
{
    if (a->hotness != b->hotness)
        return a->hotness < b->hotness;
    return a->seq < b->seq;
}

} // namespace

void
Stash::siftUp(std::uint32_t idx)
{
    StashEntry *entry = _shadows[idx];
    while (idx > 0) {
        const std::uint32_t parent = (idx - 1) / 2;
        if (!colder(entry, _shadows[parent]))
            break;
        setShadowAt(idx, _shadows[parent]);
        idx = parent;
    }
    setShadowAt(idx, entry);
}

void
Stash::siftDown(std::uint32_t idx)
{
    StashEntry *entry = _shadows[idx];
    const std::uint32_t n = static_cast<std::uint32_t>(_shadows.size());
    for (;;) {
        std::uint32_t child = 2 * idx + 1;
        if (child >= n)
            break;
        if (child + 1 < n && colder(_shadows[child + 1], _shadows[child]))
            ++child;
        if (!colder(_shadows[child], entry))
            break;
        setShadowAt(idx, _shadows[child]);
        idx = child;
    }
    setShadowAt(idx, entry);
}

void
Stash::link(StashEntry *entry)
{
    entry->prev = _tail;
    entry->next = nullptr;
    if (_tail)
        _tail->next = entry;
    else
        _head = entry;
    _tail = entry;
}

void
Stash::unlink(StashEntry *entry)
{
    if (entry->prev)
        entry->prev->next = entry->next;
    else
        _head = entry->next;
    if (entry->next)
        entry->next->prev = entry->prev;
    else
        _tail = entry->prev;
}

void
Stash::resift(std::uint32_t idx)
{
    if (idx > 0 && colder(_shadows[idx], _shadows[(idx - 1) / 2]))
        siftUp(idx);
    else
        siftDown(idx);
}

void
Stash::addShadow(StashEntry *entry)
{
    const auto idx = static_cast<std::uint32_t>(_shadows.size());
    _shadows.push_back(entry);
    entry->shadowIdx = idx;
    // While the keys are stale the value is provisional: the next
    // displacement re-reads it before any victim is chosen.
    entry->hotness =
        _keysFresh && _hotness ? _hotness->hotnessOf(entry->addr) : 0;
    siftUp(idx);
}

void
Stash::removeShadow(StashEntry *entry)
{
    const std::uint32_t idx = entry->shadowIdx;
    StashEntry *last = _shadows.back();
    _shadows.pop_back();
    if (last == entry)
        return;
    setShadowAt(idx, last);
    resift(idx);
}

void
Stash::refreshKeys()
{
    // Re-read every shadow's hotness once, then re-sift only the
    // entries whose key moved (usually a handful); each re-sift keeps
    // the heap valid.  Reading before applying keeps the visit
    // independent of the positions the re-sifts shuffle.
    if (_hotness) {
        _moved.clear();
        for (StashEntry *e : _shadows) {
            const std::uint32_t hot = _hotness->hotnessOf(e->addr);
            if (hot != e->hotness)
                _moved.emplace_back(e, hot);
        }
        for (const auto &[entry, hot] : _moved) {
            entry->hotness = hot;
            resift(entry->shadowIdx);
        }
    }
    _keysFresh = true;
}

void
Stash::enforceCapacity()
{
    // The stash is a fixed-size CAM: shadow entries are replaceable
    // and get displaced (coldest, then oldest, first) when the
    // structure fills up; real entries beyond the capacity are an
    // overflow (counted by trackOccupancy — functionally we keep them
    // so the simulation can proceed).
    while (_entries.size() > _capacity && !_shadows.empty()) {
        if (!_keysFresh)
            refreshKeys();
        StashEntry *victim = _shadows.front();
        removeShadow(victim);
        unlink(victim);
        recyclePayload(*victim);
        _entries.erase(victim->addr);
    }
}

bool
Stash::insert(StashEntry entry)
{
    SB_ASSERT(entry.type != BlockType::Dummy,
              "dummy blocks are discarded, not stashed");
    entry.seq = _nextSeq++;

    auto it = _entries.find(entry.addr);
    if (it == _entries.end()) {
        if (entry.type == BlockType::Real)
            ++_realCount;
        const Addr addr = entry.addr;
        auto [pos, inserted] = _entries.emplace(addr, std::move(entry));
        (void)inserted;
        link(&pos->second);
        if (pos->second.isShadow())
            addShadow(&pos->second);
        enforceCapacity();
        trackOccupancy();
        return true;
    }

    StashEntry &existing = it->second;
    if (entry.type == BlockType::Shadow) {
        // Merge: a real copy wins; duplicate shadows collapse.
        if (existing.type == BlockType::Real) {
            ++_stats.mergesRealWins;
        } else {
            SB_ASSERT(existing.version == entry.version,
                      "divergent shadow versions for addr %llu "
                      "(%u vs %u)",
                      static_cast<unsigned long long>(entry.addr),
                      existing.version, entry.version);
            ++_stats.mergesShadowDup;
        }
        recyclePayload(entry);
        return false;
    }

    // Incoming real block.  A real copy can only meet a shadow here:
    // two real copies of one address never coexist (invariant 2).
    SB_ASSERT(existing.type == BlockType::Shadow,
              "two real copies of addr %llu",
              static_cast<unsigned long long>(entry.addr));
    SB_ASSERT(existing.version == entry.version,
              "stale shadow survived for addr %llu",
              static_cast<unsigned long long>(entry.addr));
    ++_stats.mergesRealWins;
    removeShadow(&existing);
    unlink(&existing);
    recyclePayload(existing);
    existing = std::move(entry);
    link(&existing);  // It took the newest seq.
    ++_realCount;
    trackOccupancy();
    return true;
}

const StashEntry *
Stash::find(Addr addr) const
{
    auto it = _entries.find(addr);
    return it == _entries.end() ? nullptr : &it->second;
}

StashEntry *
Stash::find(Addr addr)
{
    auto it = _entries.find(addr);
    return it == _entries.end() ? nullptr : &it->second;
}

void
Stash::remove(Addr addr)
{
    auto it = _entries.find(addr);
    SB_ASSERT(it != _entries.end(), "removing absent addr %llu",
              static_cast<unsigned long long>(addr));
    if (it->second.type == BlockType::Real)
        --_realCount;
    else
        removeShadow(&it->second);
    unlink(&it->second);
    recyclePayload(it->second);
    _entries.erase(it);
}

void
Stash::dropShadowOf(Addr addr)
{
    auto it = _entries.find(addr);
    if (it != _entries.end() && it->second.type == BlockType::Shadow) {
        removeShadow(&it->second);
        unlink(&it->second);
        recyclePayload(it->second);
        _entries.erase(it);
    }
}

void
Stash::trackOccupancy()
{
    if (_realCount > _stats.peakReal)
        _stats.peakReal = _realCount;
    if (_realCount > _capacity)
        ++_stats.overflowEvents;
}

void
Stash::saveState(ckpt::Serializer &out) const
{
    out.u64(_nextSeq);
    out.u64(_realCount);
    out.u64(_stats.peakReal);
    out.u64(_stats.overflowEvents);
    out.u64(_stats.mergesRealWins);
    out.u64(_stats.mergesShadowDup);
    // Serialize in seq order (the entry list's order), not map
    // order: the hash map's iteration order is an implementation
    // detail that varies across processes, and a snapshot must be
    // byte-identical for identical stash contents (generation
    // diffing, resume bit-equality tests).
    out.u64(_entries.size());
    for (const StashEntry *e = _head; e; e = e->next) {
        out.u64(e->addr);
        out.u64(e->leaf);
        out.u32(e->version);
        out.u8(static_cast<std::uint8_t>(e->type));
        out.u64(e->seq);
        out.vecU64(e->payload);
    }
}

void
Stash::loadState(ckpt::Deserializer &in)
{
    _nextSeq = in.u64();
    _realCount = in.u64();
    _stats.peakReal = in.u64();
    _stats.overflowEvents = in.u64();
    _stats.mergesRealWins = in.u64();
    _stats.mergesShadowDup = in.u64();
    _entries.clear();
    _shadows.clear();
    _head = _tail = nullptr;
    _keysFresh = false;
    const std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        StashEntry e;
        e.addr = in.u64();
        e.leaf = in.u64();
        e.version = in.u32();
        e.type = static_cast<BlockType>(in.u8());
        e.seq = in.u64();
        e.payload = in.vecU64();
        if (_tail && e.seq <= _tail->seq)
            throw CkptMismatchError("stash entries out of seq order");
        const Addr addr = e.addr;
        auto [pos, inserted] = _entries.emplace(addr, std::move(e));
        (void)inserted;
        link(&pos->second);
        if (pos->second.isShadow())
            addShadow(&pos->second);
    }
}

} // namespace sboram
