/**
 * @file
 * RD-queue and HD-queue (paper Section V-B2).
 *
 * During a path write, every block written back becomes a duplication
 * candidate and is inserted into both queues.  The RD-queue ranks
 * candidates by the tree level they were placed at (deepest — "rear"
 * — first); the HD-queue ranks by the Hot Address Cache counter
 * (hottest first).  When a dummy slot is encountered, the head of the
 * chosen queue that satisfies Rule-2 (candidate strictly deeper than
 * the slot) is popped and duplicated.  Both queues are cleared after
 * the path write completes.
 */

#ifndef SBORAM_SHADOW_DUPQUEUES_HH
#define SBORAM_SHADOW_DUPQUEUES_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/Types.hh"
#include "oram/DuplicationPolicy.hh"

namespace sboram {

/** A queued duplication candidate. */
struct DupCandidate
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    /**
     * RD-Dup priority: how "rear" the data is — the tree level of
     * its real copy.  For blocks placed in this path write this is
     * the placement level; for re-offered stash shadows it is the
     * real copy's current level.
     */
    unsigned rearLevel = 0;
    /** Placement constraint: a shadow may go to slots strictly above
     *  this level (Rule-1 label compatibility and Rule-2). */
    unsigned maxLevel = 0;
    std::uint32_t hotness = 0;
    std::uint64_t seq = 0;    ///< Insertion order tie-breaker.
};

/**
 * One priority queue of duplication candidates, bucketed by
 * maxLevel.  Each bucket is kept sorted best-first under `better`
 * (sorted lazily, at the first pop after a push), and popFor(slot)
 * compares only the heads of the buckets deeper than the slot
 * (Rule-2): O(levels) per pop, one sort per bucket per path write.
 * `better` is a strict total order except between field-identical
 * copies (the unique seq breaks every other tie), so the pop is
 * exactly the scan-min over every qualifying candidate.
 *
 * A refill re-offers one more copy of every candidate pushed since
 * the last clear() ("shadow block(s)": a block may be duplicated
 * more than once per path write).  Copies are counted, not stored:
 * each entry tracks how many of its copies have been drawn, so a
 * refill is O(levels) and the queue never grows with refills.
 * Bucket storage is kept across clear(), so a queue reused path
 * write after path write allocates nothing in steady state.
 */
class DupQueue
{
  public:
    /** Ordering selector. */
    enum class Rank { ByLevelDesc, ByHotnessDesc };

    explicit DupQueue(Rank rank) : _rank(rank) {}

    void push(const DupCandidate &cand);

    /** Add one more copy of every candidate pushed since clear(). */
    void refill();

    /**
     * Pop the best candidate placed strictly deeper than @p slotLevel
     * (Rule-2), or nullopt when none qualifies.
     */
    std::optional<DupCandidate> popFor(unsigned slotLevel);

    void clear();
    /** Queued copies (pushes plus refill copies, minus pops). */
    std::size_t size() const { return _size; }

  private:
    struct Entry
    {
        DupCandidate cand;
        /** Pushed with drawn = _refills (one copy); each refill adds
         *  a copy and each pop takes one, leaving
         *  _refills + 1 - drawn copies. */
        std::uint32_t drawn = 0;
    };

    struct Bucket
    {
        std::vector<Entry> entries;
        /** Every entry before head has no copy left. */
        std::size_t head = 0;
        bool sorted = true;
    };

    bool better(const DupCandidate &a, const DupCandidate &b) const;

    Rank _rank;
    /** _buckets[m]: the candidates with maxLevel m.  Grown on
     *  demand, never shrunk. */
    std::vector<Bucket> _buckets;
    std::uint32_t _refills = 0;  ///< Refills since clear().
    std::size_t _pushed = 0;     ///< Pushes since clear().
    std::size_t _size = 0;
};

} // namespace sboram

#endif // SBORAM_SHADOW_DUPQUEUES_HH
