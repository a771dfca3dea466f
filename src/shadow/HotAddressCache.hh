/**
 * @file
 * Hot Address Cache (paper Section V-B1).
 *
 * A small set-associative cache storing access counters for program
 * addresses observed at LLC misses, with Least-Frequently-Used
 * replacement.  HD-Dup consults it to rank duplication candidates.
 * The paper sizes it at 1 KB, which at ~8 B per entry is 128 entries.
 */

#ifndef SBORAM_SHADOW_HOTADDRESSCACHE_HH
#define SBORAM_SHADOW_HOTADDRESSCACHE_HH

#include <cstdint>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Logging.hh"
#include "common/Types.hh"

namespace sboram {

class HotAddressCache
{
  public:
    explicit HotAddressCache(unsigned entries = 128,
                             unsigned associativity = 4);

    /**
     * Record an LLC miss: bump the counter, inserting if needed.
     * Returns the tag the LFU replacement evicted to make room (its
     * count drops to 0), or kInvalidAddr when none was.
     */
    Addr touch(Addr addr);

    /**
     * Access count for @p addr; 0 when not cached.  Defined inline —
     * the stash's displacement scan and the duplication policy's
     * candidate ranking call this once per shadow entry per event,
     * which made an out-of-line probe one of the hottest symbols in
     * the profile.  The set count is a power of two (the constructor
     * rounds down), so the set index is a mask, not a division.
     */
    std::uint32_t
    count(Addr addr) const
    {
        const Way *base =
            &_ways[static_cast<std::size_t>(addr & _setMask) * _assoc];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (base[w].valid && base[w].tag == addr)
                return base[w].counter;
        }
        return 0;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    void
    saveState(ckpt::Serializer &out) const
    {
        out.u64(_hits);
        out.u64(_misses);
        out.u64(_ways.size());
        for (const Way &w : _ways) {
            out.u8(w.valid ? 1 : 0);
            out.u64(w.tag);
            out.u32(w.counter);
        }
    }

    void
    loadState(ckpt::Deserializer &in)
    {
        _hits = in.u64();
        _misses = in.u64();
        if (in.u64() != _ways.size())
            throw CkptMismatchError("hot-address-cache geometry mismatch");
        for (Way &w : _ways) {
            w.valid = in.u8() != 0;
            w.tag = in.u64();
            w.counter = in.u32();
        }
    }

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint32_t counter = 0;
    };

    std::vector<Way> _ways;
    unsigned _numSets;
    unsigned _setMask;  ///< _numSets - 1 (power-of-two set count).
    unsigned _assoc;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace sboram

#endif // SBORAM_SHADOW_HOTADDRESSCACHE_HH
