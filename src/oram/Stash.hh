/**
 * @file
 * The on-chip stash (paper Section II-C / V-A).
 *
 * Modelled after the CAM-based stash of Phantom [15]: content
 * addressable by program address, with an evicted/replaceable bit.  In
 * this implementation "replaceable" entries are simply removed (their
 * slot is free); shadow-block entries are kept but are always
 * replaceable, so they never count against the stash capacity — this
 * is what preserves the baseline stash-overflow probability (paper
 * Rule-3 and Section IV-B2).
 *
 * The merge operation of Section IV-A is enforced structurally: the
 * stash holds at most one entry per address, a real entry always wins
 * over a shadow entry, and multiple shadows collapse into one.
 *
 * Storage mirrors that CAM: entries live in a pointer-stable slab
 * whose vacated cells are reused, and a power-of-two open-addressed
 * addr -> entry index, sized from the capacity, plays the content
 * match.  Neither allocates in steady state.  Reals and shadows sit
 * on separate seq-ordered lists, so eviction planning walks only the
 * few reals and the shadow offers only the shadows.
 */

#ifndef SBORAM_ORAM_STASH_HH
#define SBORAM_ORAM_STASH_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "Block.hh"
#include "DuplicationPolicy.hh"
#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"
#include "common/VectorPool.hh"

namespace sboram {

/** One stash entry; at most one per address after merging. */
struct StashEntry
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    BlockType type = BlockType::Dummy;
    std::uint64_t seq = 0;  ///< Insertion order, for determinism.
    /** Cached hotness (the displacement key) while this entry is a
     *  stash-resident shadow; provisional while the stash's keys are
     *  stale.  Transient bookkeeping, not serialized. */
    std::uint32_t hotness = 0;
    /** Position in the stash's shadow heap while this entry is a
     *  stash-resident shadow; transient bookkeeping, not serialized. */
    std::uint32_t shadowIdx = 0;
    /** Neighbours in the stash's seq-ordered list of this entry's
     *  class (real or shadow); transient bookkeeping, not
     *  serialized. */
    StashEntry *prev = nullptr;
    StashEntry *next = nullptr;
    SB_SECRET std::vector<std::uint64_t> payload;

    bool isShadow() const { return type == BlockType::Shadow; }
};

/** Aggregate stash statistics. */
struct StashStats
{
    std::uint64_t peakReal = 0;     ///< Max real occupancy observed.
    std::uint64_t overflowEvents = 0;
    std::uint64_t mergesRealWins = 0;  ///< Shadow discarded for real.
    std::uint64_t mergesShadowDup = 0; ///< Shadow collapsed w/ shadow.
};

class Stash
{
  public:
    explicit Stash(unsigned capacity);

    // The entry list, the shadow heap and the index point into the
    // slab.
    Stash(const Stash &) = delete;
    Stash &operator=(const Stash &) = delete;

    /**
     * Insert a block, applying the merge rules.  Returns false when
     * the incoming block was discarded by a merge.
     */
    bool insert(StashEntry entry);

    /** Find the entry (real or shadow) for an address, or nullptr. */
    const StashEntry *find(Addr addr) const;
    StashEntry *find(Addr addr);

    /** Remove the entry for an address (after eviction placement). */
    void remove(Addr addr);

    /** Discard any shadow entry for this address (merge case 1). */
    void dropShadowOf(Addr addr);

    /** Number of real (capacity-counting) entries. */
    std::uint64_t realCount() const { return _realCount; }
    /** Number of shadow (replaceable) entries. */
    std::uint64_t
    shadowCount() const
    {
        return _live - _realCount;
    }

    std::uint64_t size() const { return _live; }
    /** insert() calls so far, merges included (each consumes a seq). */
    std::uint64_t inserts() const { return _nextSeq; }
    unsigned capacity() const { return _capacity; }

    const StashStats &stats() const { return _stats; }

    /**
     * Collect entries eligible for placement at @p level of a path
     * write, i.e. whose common prefix with the eviction leaf is at
     * least @p level, ordered deterministically: real entries first,
     * then shadows, each in insertion order.  @p commonLevelFn maps a
     * block leaf to the common prefix length.
     *
     * Reference implementation: one rescan + sort per call.  The
     * eviction hot path uses planEviction() instead, which computes
     * the real prefix of this ordering once per eviction; tests check
     * the two agree.
     */
    template <typename CommonLevelFn>
    std::vector<Addr>
    eligibleForLevel(unsigned level, CommonLevelFn &&commonLevelFn) const
    {
        std::vector<const StashEntry *> picked;
        forEach([&](const StashEntry &e) {
            if (commonLevelFn(e.leaf) >= level)
                picked.push_back(&e);
        });
        std::sort(picked.begin(), picked.end(),
                  [](const StashEntry *a, const StashEntry *b) {
                      const bool as = a->isShadow();
                      const bool bs = b->isShadow();
                      if (as != bs)
                          return !as;  // reals first
                      return a->seq < b->seq;
                  });
        std::vector<Addr> addrs;
        addrs.reserve(picked.size());
        for (const StashEntry *e : picked)
            addrs.push_back(e->addr);
        return addrs;
    }

    /** One real stash entry's slice of an EvictionPlan. */
    struct PlanEntry
    {
        Addr addr = kInvalidAddr;
        unsigned commonLevel = 0;  ///< Deepest level on the path.
        bool placed = false;  ///< Consumed by a placement already.
    };

    /**
     * Per-eviction placement plan (see planEviction): every real
     * entry's common-prefix level with the eviction path, held in
     * insertion order.  Only reals are planned: greedy eviction
     * places real blocks only (stash shadows re-enter the tree
     * through the shadow-fill pass), and reals lead the canonical
     * order, so the plan is the real prefix of eligibleForLevel().
     * A path write walks the levels leaf-to-root, asking for the
     * eligible entries of each level; entries it places are marked
     * consumed so they stop appearing at shallower levels — exactly
     * the behaviour of re-running eligibleForLevel() against the
     * shrinking stash, at one walk of the real list per eviction
     * instead of a rescan + sort per level.
     *
     * Valid only while no entries are *added* to the stash (path
     * write pass 1 only removes).
     */
    class EvictionPlan
    {
      public:
        /**
         * Visit the not-yet-placed entries whose common level is at
         * least @p level, in canonical order.  @p fn receives a
         * mutable PlanEntry (set .placed after consuming it) and
         * returns false to stop early (bucket full).
         */
        template <typename Fn>
        void
        forEachEligible(unsigned level, Fn &&fn)
        {
            for (PlanEntry &e : _order) {
                if (e.placed || e.commonLevel < level)
                    continue;
                if (!fn(e))
                    return;
            }
        }

        /** Eligible addresses at @p level (testing / diagnostics). */
        std::vector<Addr>
        eligibleForLevel(unsigned level) const
        {
            std::vector<Addr> addrs;
            for (const PlanEntry &e : _order) {
                if (!e.placed && e.commonLevel >= level)
                    addrs.push_back(e.addr);
            }
            return addrs;
        }

      private:
        friend class Stash;
        std::vector<PlanEntry> _order;
    };

    /**
     * Build the placement plan for one eviction: a single pass over
     * the stash's seq-ordered real list computes each real entry's
     * common-prefix level with the eviction path, already in
     * canonical order.  @p commonLevelFn maps a block leaf to the
     * common prefix length with the eviction leaf.
     */
    template <typename CommonLevelFn>
    EvictionPlan
    planEviction(CommonLevelFn &&commonLevelFn) const
    {
        EvictionPlan plan;
        planEvictionInto(plan,
                         std::forward<CommonLevelFn>(commonLevelFn));
        return plan;
    }

    /**
     * In-place variant of planEviction: rebuilds @p plan, reusing its
     * storage.  The eviction hot path keeps one plan object alive
     * across path writes so planning allocates nothing in steady
     * state.
     */
    template <typename CommonLevelFn>
    void
    planEvictionInto(EvictionPlan &plan,
                     CommonLevelFn &&commonLevelFn) const
    {
        plan._order.clear();
        for (const StashEntry *e = _reals.head; e; e = e->next)
            plan._order.push_back(
                PlanEntry{e->addr, commonLevelFn(e->leaf), false});
    }

    /** Visit every entry in insertion (seq) order: the two class
     *  lists merged. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        mergeBySeq(_reals.head, _shadowList.head,
                   [&](const StashEntry &e) { fn(e); });
    }

    /** Visit every shadow entry in insertion (seq) order. */
    template <typename Fn>
    void
    forEachShadow(Fn &&fn) const
    {
        for (const StashEntry *e = _shadowList.head; e; e = e->next)
            fn(*e);
    }

    /**
     * Install a hotness oracle used to pick shadow-displacement
     * victims: when the CAM fills up, the coldest shadow goes first,
     * oldest among equally cold ones (HD-Dup's Hot Address Cache
     * provides the ranking).  Without an oracle, displacement is
     * oldest-first.  Not owned; must outlive the stash.
     *
     * Each shadow's hotness is cached in its entry, so the oracle is
     * read at most once per shadow insert, once per re-keyed address
     * and once per shadow after each invalidation, not once per
     * shadow per displacement.  The cache relies on the hotnessOf
     * contract: a value changes only across
     * DuplicationPolicy::onLlcMiss or a state restore.  Whoever
     * drives those must afterwards call rekey() for each address
     * whose value moved, or invalidateHotness() when that set is
     * unknown (TinyOram::access does; loadState invalidates).
     */
    void
    setHotnessOracle(const DuplicationPolicy *policy)
    {
        _hotness = policy;
        _keysFresh = false;
    }

    /**
     * The oracle's values may have changed: the next displacement
     * re-reads every shadow's hotness once and re-sifts the entries
     * whose value moved.  Until then inserts skip the oracle.
     */
    void invalidateHotness() { _keysFresh = false; }

    /**
     * The oracle's value for @p addr alone may have changed: re-read
     * it now if a shadow of @p addr is resident and re-sift that
     * entry.  A no-op while the keys are stale (the pending full
     * refresh re-reads every shadow anyway) and for kInvalidAddr.
     */
    void rekey(Addr addr);

    /**
     * Install the pool that receives payload buffers of entries the
     * stash drops (merge discards, capacity displacement, remove).
     * Not owned; must outlive the stash.  Pooling keeps path reads
     * from allocating a fresh vector per block (payload mode only;
     * entries without payloads are free).
     */
    void
    setPayloadRecycler(VectorPool *pool)
    {
        _recycle = pool;
    }

    /** Serialize entries + counters into a checkpoint section. */
    void saveState(ckpt::Serializer &out) const;
    /**
     * Restore from a checkpoint, bypassing merge/capacity logic (the
     * snapshot already holds a legal post-merge stash).  The hotness
     * oracle and payload recycler are not state and stay installed;
     * the cached hotness is marked stale (the oracle may have been
     * restored too).
     */
    void loadState(ckpt::Deserializer &in);

  private:
    void trackOccupancy();
    void enforceCapacity();

    /** Hand a dying entry's payload buffer back to the owner. */
    void
    recyclePayload(StashEntry &entry)
    {
        // Unconditional hand-off: release() itself drops capacity-0
        // buffers, so gating on the entry's buffer state here would
        // be a data-dependent branch for nothing.
        if (_recycle)
            _recycle->release(std::move(entry.payload));
    }

    /** One addr -> entry cell of the index; addr == kInvalidAddr
     *  marks it empty. */
    struct IndexCell
    {
        Addr addr = kInvalidAddr;
        StashEntry *entry = nullptr;
    };

    /** Home cell of @p addr (Fibonacci hashing onto the table). */
    std::size_t
    homeOf(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr * 0x9e3779b97f4a7c15ULL) >> _indexShift);
    }
    /** Cell holding @p addr, or the empty cell ending its probe. */
    std::size_t probe(Addr addr) const;
    /** A slab cell for a new entry: a vacated one, else a fresh one. */
    StashEntry *allocEntry();
    /** Index a new entry (growing the table past half full). */
    void indexEntry(StashEntry *entry);
    /** Drop @p entry from the index and hand its cell back. */
    void vacate(StashEntry *entry);
    /** Size the index to 2^bits empty cells. */
    void resetIndex(unsigned bits);

    /** A seq-ordered intrusive list of one entry class. */
    struct SeqList
    {
        StashEntry *head = nullptr;
        StashEntry *tail = nullptr;
    };

    /** The list of @p entry's class (real or shadow). */
    SeqList &
    listOf(const StashEntry *entry)
    {
        return entry->isShadow() ? _shadowList : _reals;
    }

    /** Visit the entries of two seq-ordered lists merged by seq
     *  (unique, so the merge is exact). */
    template <typename Fn>
    static void
    mergeBySeq(StashEntry *r, StashEntry *s, Fn &&fn)
    {
        while (r || s) {
            if (!s || (r && r->seq < s->seq)) {
                fn(*r);
                r = r->next;
            } else {
                fn(*s);
                s = s->next;
            }
        }
    }

    void link(StashEntry *entry);
    void unlink(StashEntry *entry);
    void addShadow(StashEntry *entry);
    void removeShadow(StashEntry *entry);
    void refreshKeys();
    void siftUp(std::uint32_t idx);
    void siftDown(std::uint32_t idx);
    void resift(std::uint32_t idx);

    /** Store @p entry at heap position @p idx. */
    void
    setShadowAt(std::uint32_t idx, StashEntry *entry)
    {
        _shadows[idx] = entry;
        entry->shadowIdx = idx;
    }

    unsigned _capacity;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _realCount = 0;
    /** Live entries (real and shadow). */
    std::uint64_t _live = 0;
    /** Entry storage; a deque never moves its elements, so every
     *  pointer below stays valid while its entry lives. */
    std::deque<StashEntry> _slab;
    /** Slab cells whose entries left; reused before the slab grows. */
    std::vector<StashEntry *> _vacant;
    /** Open-addressed (linear probing) addr -> entry table, at most
     *  half full; 2^(64 - _indexShift) cells. */
    std::vector<IndexCell> _index;
    unsigned _indexShift = 64;
    /**
     * Every entry, by pointer, in one of two doubly linked lists
     * ordered by seq, one per class: an entry is linked at its
     * list's tail exactly when it takes the next seq, and moves
     * lists only when a real replaces a shadow (taking the newest
     * seq).  The eviction plan walks the reals, the shadow offers
     * the shadows, and the snapshot a seq merge of the two, so every
     * canonical order comes from a walk instead of a sort.
     */
    SeqList _reals;
    SeqList _shadowList;
    /**
     * Every shadow entry, by pointer, as an indexed binary min-heap
     * on the cached
     * (hotness, seq) key.  seq is unique, so the key is a strict
     * total order; once the keys are fresh the root is exactly the
     * full (hotness, seq) scan-min, i.e. the displacement victim.
     */
    std::vector<StashEntry *> _shadows;
    /** Every cached hotness matches the oracle (see hotnessOf). */
    bool _keysFresh = true;
    /** refreshKeys() scratch: entries whose hotness moved. */
    std::vector<std::pair<StashEntry *, std::uint32_t>> _moved;
    const DuplicationPolicy *_hotness = nullptr;
    VectorPool *_recycle = nullptr;
    StashStats _stats;
};

} // namespace sboram

#endif // SBORAM_ORAM_STASH_HH
