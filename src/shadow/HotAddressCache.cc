#include "HotAddressCache.hh"

namespace sboram {

HotAddressCache::HotAddressCache(unsigned entries,
                                 unsigned associativity)
    : _assoc(associativity)
{
    SB_ASSERT(entries >= associativity, "hot address cache too small");
    _numSets = entries / associativity;
    while (_numSets & (_numSets - 1))
        _numSets &= _numSets - 1;
    _setMask = _numSets - 1;
    _ways.resize(static_cast<std::size_t>(_numSets) * _assoc);
}

Addr
HotAddressCache::touch(Addr addr)
{
    const unsigned set = static_cast<unsigned>(addr & _setMask);
    Way *base = &_ways[static_cast<std::size_t>(set) * _assoc];
    for (unsigned w = 0; w < _assoc; ++w) {
        if (base[w].valid && base[w].tag == addr) {
            ++base[w].counter;
            ++_hits;
            return kInvalidAddr;
        }
    }
    ++_misses;
    // LFU victim selection.
    Way *victim = &base[0];
    for (unsigned w = 0; w < _assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].counter < victim->counter)
            victim = &base[w];
    }
    const Addr evicted = victim->valid ? victim->tag : kInvalidAddr;
    victim->valid = true;
    victim->tag = addr;
    victim->counter = 1;
    return evicted;
}

} // namespace sboram
