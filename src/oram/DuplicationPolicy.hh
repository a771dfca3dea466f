/**
 * @file
 * Hook interface through which the Shadow Block mechanism plugs into
 * the Tiny ORAM path write (paper Algorithm 1, line 4:
 * `dup_blk_select()`).
 *
 * During a path write the controller reports every block it places
 * (these become the duplication candidates — paper Section V-B2: the
 * RD/HD queues hold the blocks evicted in the current path write and
 * are cleared afterwards).  When the controller is about to write a
 * dummy block, it first offers the slot to the policy, which may
 * return a candidate to duplicate; the slot then becomes a shadow
 * block.
 *
 * Rule-2 is guaranteed structurally: the write proceeds leaf → root,
 * so every candidate already sits strictly deeper than the dummy slot
 * being offered.
 */

#ifndef SBORAM_ORAM_DUPLICATIONPOLICY_HH
#define SBORAM_ORAM_DUPLICATIONPOLICY_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/Types.hh"

namespace sboram {

/** A block placed during the current path write. */
struct PlacedBlock
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    unsigned level = 0;   ///< Tree level it was written to.
};

/** Candidate chosen for duplication into a dummy slot. */
struct ShadowChoice
{
    Addr addr = kInvalidAddr;
    LeafLabel leaf = 0;
    std::uint32_t version = 0;
    /**
     * When true, any stash-resident shadow copy of this address
     * should be dropped now that a tree copy exists — freeing the
     * (fixed-capacity) stash for other shadow copies.  RD-Dup
     * chooses this; HD-Dup keeps the stash copy since stash hits are
     * its whole purpose.
     */
    bool releaseStashCopy = false;
};

class DuplicationPolicy
{
  public:
    virtual ~DuplicationPolicy() = default;

    /** A new path write begins (eviction to @p leaf). */
    virtual void beginPathWrite(LeafLabel leaf) { (void)leaf; }

    /** A real block was just placed at @p placed.level by the greedy
     *  pass (stash shadows re-enter the tree only as duplicates). */
    virtual void onBlockPlaced(const PlacedBlock &placed)
    {
        (void)placed;
    }

    /**
     * A shadow copy resident in the stash may be re-duplicated onto
     * this path at any level strictly below @p maxLevel (the minimum
     * of its label's common prefix with the eviction leaf and its
     * real copy's tree level) — this is how shadow copies persist
     * across bucket rewrites.  @p rearLevel is the real copy's tree
     * level (the RD-Dup priority).
     */
    virtual void offerStashShadow(Addr addr, LeafLabel leaf,
                                  std::uint32_t version,
                                  unsigned rearLevel,
                                  unsigned maxLevel)
    {
        (void)addr;
        (void)leaf;
        (void)version;
        (void)rearLevel;
        (void)maxLevel;
    }

    /**
     * A dummy slot at @p level is being written; return a candidate
     * to duplicate, or nullopt to write a plain dummy.
     */
    virtual std::optional<ShadowChoice> selectShadow(unsigned level) = 0;

    /** The path write completed (queues are cleared). */
    virtual void endPathWrite() {}

    /** An LLC miss for @p addr reached the controller (HD-Dup's Hot
     *  Address Cache observes these). */
    virtual void onLlcMiss(Addr addr) { (void)addr; }

    /**
     * An ORAM request finished; @p wasDummy tells whether it was a
     * dummy (timing-protection or idle-gap) request.  Drives the DRI
     * counter of dynamic partitioning.
     */
    virtual void onRequestClassified(bool wasDummy) { (void)wasDummy; }

    /** Current partitioning level (for statistics; L+1 when unused). */
    virtual unsigned partitionLevel() const { return 0; }

    /**
     * Access-frequency estimate for an address (HD-Dup's Hot Address
     * Cache); the stash uses it to pick displacement victims among
     * shadow entries.
     *
     * Contract: the value for any address may change only across
     * onLlcMiss() or a state restore.  The stash caches these values
     * per entry and re-reads them only when the controller tells it
     * one of those happened, so an implementation that drifts at
     * other times would pick stale victims.  After each onLlcMiss,
     * TinyOram::access re-keys (Stash::rekey) the addresses
     * hotnessMoved() reports, or, when it reports "unknown", marks
     * every cached value stale (Stash::invalidateHotness); a restore
     * marks them stale too (Stash::loadState).
     */
    virtual std::uint32_t
    hotnessOf(Addr addr) const
    {
        (void)addr;
        return 0;
    }

    /**
     * The addresses whose hotnessOf() value the latest onLlcMiss()
     * may have moved (unused places hold kInvalidAddr), or nullopt
     * for "unknown".  Answered only right after onLlcMiss.  The
     * default is "unknown", which costs a re-read of every stash
     * shadow's hotness, so a decorator that does not forward this
     * keeps exact behaviour, only slower.
     */
    virtual std::optional<std::array<Addr, 2>>
    hotnessMoved() const
    {
        return std::nullopt;
    }
};

/** Baseline Tiny ORAM: never duplicates. */
class NullDuplicationPolicy : public DuplicationPolicy
{
  public:
    std::optional<ShadowChoice>
    selectShadow(unsigned level) override
    {
        (void)level;
        return std::nullopt;
    }
};

} // namespace sboram

#endif // SBORAM_ORAM_DUPLICATIONPOLICY_HH
