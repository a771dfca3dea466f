#include "AddressMap.hh"

namespace sboram {

AddressMap::AddressMap(const DramGeometry &geo, unsigned levels,
                       unsigned slotsPerBucket)
    : _geo(geo), _slots(slotsPerBucket)
{
    const std::uint64_t bucketBytes = geo.blockBytes * slotsPerBucket;
    SB_ASSERT(levels >= 1, "tree needs at least one level");
    SB_ASSERT(bucketBytes <= geo.rowBytes,
              "bucket (%llu B) larger than a DRAM row",
              static_cast<unsigned long long>(bucketBytes));

    // Largest s such that a full s-level sub-tree (2^s - 1 buckets)
    // fits in one row.
    unsigned s = 1;
    while (s + 1 <= 16 &&
           ((std::uint64_t(1) << (s + 1)) - 1) * bucketBytes <=
               geo.rowBytes) {
        ++s;
    }
    _subtreeLevels = s;

    // Consecutive groups of s levels form the sub-trees; a group's
    // sub-trees are numbered after every sub-tree of the groups above
    // it (one per bucket of the group's root level).
    _layout.resize(levels);
    std::uint64_t seqBase = 0;
    for (unsigned level = 0; level < levels; ++level) {
        const unsigned depth = level % s;
        if (depth == 0 && level > 0)
            seqBase += BucketIndex(1) << (level - s);
        LevelLayout &l = _layout[level];
        l.start = (BucketIndex(1) << level) - 1;
        l.depth = depth;
        l.seqBase = seqBase;
        l.localBase = (std::uint64_t(1) << depth) - 1;
    }

    // Sub-tree sequence numbers stripe channel first, then rank, then
    // bank, then row.
    _bankPlace.resize(geo.totalBanks());
    for (std::size_t i = 0; i < _bankPlace.size(); ++i) {
        BankPlace &p = _bankPlace[i];
        p.channel = static_cast<unsigned>(i % geo.channels);
        p.rank = static_cast<unsigned>(i / geo.channels %
                                       geo.ranksPerChannel);
        p.bank = static_cast<unsigned>(
            i / (std::uint64_t(geo.channels) * geo.ranksPerChannel));
    }
}

DramCoord
AddressMap::mapFlat(Addr blockAddr) const
{
    DramCoord c;
    c.channel = static_cast<unsigned>(blockAddr % _geo.channels);
    std::uint64_t rest = blockAddr / _geo.channels;
    c.rank = static_cast<unsigned>(rest % _geo.ranksPerChannel);
    rest /= _geo.ranksPerChannel;
    c.bank = static_cast<unsigned>(rest % _geo.banksPerRank);
    rest /= _geo.banksPerRank;
    c.column = rest % _geo.blocksPerRow();
    c.row = rest / _geo.blocksPerRow();
    return c;
}

} // namespace sboram
