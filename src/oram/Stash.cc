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

Stash::Stash(unsigned capacity) : _capacity(capacity)
{
    // At most half full at capacity; overflowing reals grow it.
    unsigned bits = 4;
    while ((std::uint64_t(1) << bits) < 2 * (std::uint64_t(capacity) + 1))
        ++bits;
    resetIndex(bits);
}

void
Stash::resetIndex(unsigned bits)
{
    _index.assign(std::size_t(1) << bits, IndexCell{});
    _indexShift = 64 - bits;
}

std::size_t
Stash::probe(Addr addr) const
{
    const std::size_t mask = _index.size() - 1;
    std::size_t i = homeOf(addr);
    while (_index[i].addr != addr && _index[i].addr != kInvalidAddr)
        i = (i + 1) & mask;
    return i;
}

StashEntry *
Stash::allocEntry()
{
    if (_vacant.empty())
        return &_slab.emplace_back();
    StashEntry *entry = _vacant.back();
    _vacant.pop_back();
    return entry;
}

void
Stash::indexEntry(StashEntry *entry)
{
    if (2 * (_live + 1) > _index.size()) {
        // Past half full (real overflow beyond the capacity):
        // double the table and re-index every live entry.
        resetIndex(65 - _indexShift);
        mergeBySeq(_reals.head, _shadowList.head, [&](StashEntry &e) {
            if (&e != entry)
                _index[probe(e.addr)] = IndexCell{e.addr, &e};
        });
    }
    _index[probe(entry->addr)] = IndexCell{entry->addr, entry};
    ++_live;
}

void
Stash::vacate(StashEntry *entry)
{
    // Backward-shift deletion: pull each later cell of the probe run
    // into the hole unless its home lies cyclically in (hole, cell],
    // so no tombstones are needed.
    const std::size_t mask = _index.size() - 1;
    std::size_t hole = probe(entry->addr);
    for (std::size_t j = (hole + 1) & mask;
         _index[j].addr != kInvalidAddr; j = (j + 1) & mask) {
        const std::size_t home = homeOf(_index[j].addr);
        const bool stays = hole < j ? hole < home && home <= j
                                    : hole < home || home <= j;
        if (!stays) {
            _index[hole] = _index[j];
            hole = j;
        }
    }
    _index[hole] = IndexCell{};
    --_live;
    _vacant.push_back(entry);
}

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
    SeqList &list = listOf(entry);
    entry->prev = list.tail;
    entry->next = nullptr;
    if (list.tail)
        list.tail->next = entry;
    else
        list.head = entry;
    list.tail = entry;
}

void
Stash::unlink(StashEntry *entry)
{
    SeqList &list = listOf(entry);
    if (entry->prev)
        entry->prev->next = entry->next;
    else
        list.head = entry->next;
    if (entry->next)
        entry->next->prev = entry->prev;
    else
        list.tail = entry->prev;
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
Stash::rekey(Addr addr)
{
    if (!_keysFresh || !_hotness)
        return;
    StashEntry *entry = find(addr);
    if (entry == nullptr || !entry->isShadow())
        return;
    const std::uint32_t hot = _hotness->hotnessOf(addr);
    if (hot != entry->hotness) {
        entry->hotness = hot;
        resift(entry->shadowIdx);
    }
}

void
Stash::enforceCapacity()
{
    // The stash is a fixed-size CAM: shadow entries are replaceable
    // and get displaced (coldest, then oldest, first) when the
    // structure fills up; real entries beyond the capacity are an
    // overflow (counted by trackOccupancy — functionally we keep them
    // so the simulation can proceed).
    while (_live > _capacity && !_shadows.empty()) {
        if (!_keysFresh)
            refreshKeys();
        StashEntry *victim = _shadows.front();
        removeShadow(victim);
        unlink(victim);
        recyclePayload(*victim);
        vacate(victim);
    }
}

bool
Stash::insert(StashEntry entry)
{
    SB_ASSERT(entry.type != BlockType::Dummy,
              "dummy blocks are discarded, not stashed");
    entry.seq = _nextSeq++;

    StashEntry *found = find(entry.addr);
    if (found == nullptr) {
        if (entry.type == BlockType::Real)
            ++_realCount;
        StashEntry *cell = allocEntry();
        *cell = std::move(entry);
        indexEntry(cell);
        link(cell);
        if (cell->isShadow())
            addShadow(cell);
        enforceCapacity();
        trackOccupancy();
        return true;
    }

    StashEntry &existing = *found;
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
    link(&existing);  // Onto the real list: it took the newest seq.
    ++_realCount;
    trackOccupancy();
    return true;
}

const StashEntry *
Stash::find(Addr addr) const
{
    return _index[probe(addr)].entry;
}

StashEntry *
Stash::find(Addr addr)
{
    return _index[probe(addr)].entry;
}

void
Stash::remove(Addr addr)
{
    StashEntry *entry = find(addr);
    SB_ASSERT(entry != nullptr, "removing absent addr %llu",
              static_cast<unsigned long long>(addr));
    if (entry->type == BlockType::Real)
        --_realCount;
    else
        removeShadow(entry);
    unlink(entry);
    recyclePayload(*entry);
    vacate(entry);
}

void
Stash::dropShadowOf(Addr addr)
{
    StashEntry *entry = find(addr);
    if (entry != nullptr && entry->isShadow()) {
        removeShadow(entry);
        unlink(entry);
        recyclePayload(*entry);
        vacate(entry);
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
    // Serialize in seq order (the class lists merged), not slab or
    // index order: those depend on the history of inserts and
    // removals, and a snapshot must be byte-identical for identical
    // stash contents (generation diffing, resume bit-equality
    // tests).
    out.u64(_live);
    forEach([&](const StashEntry &e) {
        out.u64(e.addr);
        out.u64(e.leaf);
        out.u32(e.version);
        out.u8(static_cast<std::uint8_t>(e.type));
        out.u64(e.seq);
        out.vecU64(e.payload);
    });
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
    _slab.clear();
    _vacant.clear();
    std::fill(_index.begin(), _index.end(), IndexCell{});
    _live = 0;
    _shadows.clear();
    _reals = SeqList{};
    _shadowList = SeqList{};
    _keysFresh = false;
    const std::uint64_t count = in.u64();
    std::uint64_t reals = 0;
    std::uint64_t lastSeq = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        StashEntry e;
        e.addr = in.u64();
        e.leaf = in.u64();
        e.version = in.u32();
        e.type = static_cast<BlockType>(in.u8());
        e.seq = in.u64();
        e.payload = in.vecU64();
        if (i > 0 && e.seq <= lastSeq)
            throw CkptMismatchError("stash entries out of seq order");
        lastSeq = e.seq;
        if (e.addr == kInvalidAddr)
            throw CkptMismatchError("stash entry without an address");
        if (find(e.addr) != nullptr)
            throw CkptMismatchError("stash lists an address twice");
        if (e.type == BlockType::Real)
            ++reals;
        StashEntry *cell = allocEntry();
        *cell = std::move(e);
        indexEntry(cell);
        link(cell);
        if (cell->isShadow())
            addShadow(cell);
    }
    if (reals != _realCount)
        throw CkptMismatchError("stash real count disagrees with its "
                                "entries");
}

} // namespace sboram
