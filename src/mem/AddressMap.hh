/**
 * @file
 * Physical placement of ORAM tree buckets in DRAM.
 *
 * Implements the sub-tree data layout of Ren et al. [ISCA'13] that the
 * paper adopts ("to fully tap the potential of DRAM bandwidth, a
 * sub-tree layout is derived [11]").  Consecutive groups of
 * `subtreeLevels` tree levels are packed into one DRAM row so that a
 * path read touches few rows, and successive sub-trees along a path
 * are striped over channels/ranks/banks so their accesses overlap.
 */

#ifndef SBORAM_MEM_ADDRESSMAP_HH
#define SBORAM_MEM_ADDRESSMAP_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "DramTiming.hh"
#include "common/Logging.hh"
#include "common/Types.hh"

namespace sboram {

/** Physical coordinates of one 64 B block. */
struct DramCoord
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0;  ///< Block index within the row.
};

/**
 * Maps (bucket, slot) of a binary ORAM tree with Z slots per bucket
 * onto DramCoord using the sub-tree layout, and plain program
 * addresses onto DramCoord with a block-interleaved layout (used by
 * the insecure baseline).
 */
class AddressMap
{
  public:
    /**
     * @param geo DRAM geometry.
     * @param levels Number of tree levels (L + 1).
     * @param slotsPerBucket Z.
     */
    AddressMap(const DramGeometry &geo, unsigned levels,
               unsigned slotsPerBucket);

    /** Number of tree levels packed per sub-tree (per DRAM row). */
    unsigned subtreeLevels() const { return _subtreeLevels; }

    /**
     * Physical location of a bucket's slot 0.  A bucket's Z slots are
     * consecutive columns of one row, so slot s sits at column + s.
     */
    SB_HOT DramCoord
    mapBucket(BucketIndex bucket) const
    {
        const unsigned level = levelOf(bucket);
        SB_ASSERT(level < _layout.size(), "bucket %llu beyond the tree",
                  static_cast<unsigned long long>(bucket));
        const LevelLayout &l = _layout[level];
        const BucketIndex withinLevel = bucket - l.start;
        // Sub-tree sequence number (sub-trees of earlier groups first,
        // then left to right) and heap position inside the sub-tree.
        // localBase = 2^depth - 1 is also the mask of the offset below
        // the sub-tree root.
        const std::uint64_t seq = l.seqBase + (withinLevel >> l.depth);
        const std::uint64_t local =
            l.localBase + (withinLevel & l.localBase);
        const BankPlace &p = _bankPlace[seq % _bankPlace.size()];
        DramCoord c;
        c.channel = p.channel;
        c.rank = p.rank;
        c.bank = p.bank;
        c.row = seq / _bankPlace.size();
        c.column = local * _slots;
        return c;
    }

    /** Map a tree slot to its physical location. */
    DramCoord
    mapSlot(BucketIndex bucket, unsigned slot) const
    {
        SB_ASSERT(slot < _slots, "slot %u out of range", slot);
        DramCoord c = mapBucket(bucket);
        c.column += slot;
        return c;
    }

    /** Map a flat block address (insecure baseline). */
    DramCoord mapFlat(Addr blockAddr) const;

    /** Level of a bucket in the heap-ordered tree (root = 0). */
    static unsigned
    levelOf(BucketIndex bucket)
    {
        return static_cast<unsigned>(std::bit_width(bucket + 1)) - 1;
    }

  private:
    /** The sub-tree layout of one tree level, fixed by the geometry. */
    struct LevelLayout
    {
        BucketIndex start = 0;       ///< Heap index of its first bucket.
        unsigned depth = 0;          ///< Level within its sub-tree.
        std::uint64_t seqBase = 0;   ///< Sub-trees of the groups above.
        std::uint64_t localBase = 0; ///< 2^depth - 1, in-sub-tree heap.
    };

    /** Channel/rank/bank of one bank index (seq mod total banks). */
    struct BankPlace
    {
        unsigned channel = 0;
        unsigned rank = 0;
        unsigned bank = 0;
    };

    DramGeometry _geo;
    unsigned _slots;
    unsigned _subtreeLevels;
    std::vector<LevelLayout> _layout;
    std::vector<BankPlace> _bankPlace;  ///< Indexed by seq mod banks.
};

} // namespace sboram

#endif // SBORAM_MEM_ADDRESSMAP_HH
