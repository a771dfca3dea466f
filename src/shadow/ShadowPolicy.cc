#include "ShadowPolicy.hh"

namespace sboram {

namespace {

PartitionController
makePartition(const ShadowConfig &cfg, unsigned leafLevel)
{
    switch (cfg.mode) {
      case ShadowMode::RdOnly:
        return PartitionController::fixed(0, leafLevel + 1);
      case ShadowMode::HdOnly:
        return PartitionController::fixed(leafLevel + 1, leafLevel + 1);
      case ShadowMode::StaticPartition:
        return PartitionController::fixed(cfg.staticLevel,
                                          leafLevel + 1);
      case ShadowMode::DynamicPartition:
      default:
        return PartitionController::dynamic(cfg.driCounterBits,
                                            leafLevel + 1,
                                            (leafLevel + 1) / 2);
    }
}

} // namespace

ShadowPolicy::ShadowPolicy(const ShadowConfig &cfg, unsigned leafLevel)
    : _cfg(cfg), _leafLevel(leafLevel),
      _hot(cfg.hotCacheEntries, cfg.hotCacheAssoc),
      _partition(makePartition(cfg, leafLevel)),
      _rdQueue(DupQueue::Rank::ByLevelDesc),
      _hdQueue(DupQueue::Rank::ByHotnessDesc)
{
}

void
ShadowPolicy::beginPathWrite(LeafLabel leaf)
{
    (void)leaf;
    _rdQueue.clear();
    _hdQueue.clear();
}

void
ShadowPolicy::pushCandidate(const DupCandidate &cand)
{
    // Every written-back block (including shadow copies pulled into
    // the stash) is a candidate for both schemes (paper Section
    // V-B2).
    _rdQueue.push(cand);
    _hdQueue.push(cand);
}

void
ShadowPolicy::onBlockPlaced(const PlacedBlock &placed)
{
    DupCandidate cand;
    cand.addr = placed.addr;
    cand.leaf = placed.leaf;
    cand.version = placed.version;
    cand.rearLevel = placed.level;
    cand.maxLevel = placed.level;
    cand.hotness = _hot.count(placed.addr);
    cand.seq = _candidateSeq++;
    pushCandidate(cand);
}

void
ShadowPolicy::offerStashShadow(Addr addr, LeafLabel leaf,
                               std::uint32_t version,
                               unsigned rearLevel, unsigned maxLevel)
{
    if (maxLevel == 0)
        return;  // No level strictly below is available.
    DupCandidate cand;
    cand.addr = addr;
    cand.leaf = leaf;
    cand.version = version;
    // The priority is how rear the REAL copy is; the stash shadow's
    // own placement is bounded by label compatibility and Rule-2.
    cand.rearLevel = rearLevel;
    cand.maxLevel = maxLevel;
    cand.hotness = _hot.count(addr);
    cand.seq = _candidateSeq++;
    pushCandidate(cand);
}

std::optional<ShadowChoice>
ShadowPolicy::selectShadow(unsigned level)
{
    ++_stats.dummySlotsSeen;
    const bool useHd = level < _partition.level();
    DupQueue &queue = useHd ? _hdQueue : _rdQueue;
    std::optional<DupCandidate> cand = queue.popFor(level);
    if (!cand && _cfg.refillQueues) {
        // The working queue ran dry for this slot: refill from the
        // full candidate set — a block may carry more than one
        // shadow copy per path ("shadow block(s)").
        queue.refill();
        cand = queue.popFor(level);
    }
    if (!cand)
        return std::nullopt;
    if (useHd)
        ++_stats.hdDuplications;
    else
        ++_stats.rdDuplications;
    ShadowChoice choice;
    choice.addr = cand->addr;
    choice.leaf = cand->leaf;
    choice.version = cand->version;
    choice.releaseStashCopy = !useHd;
    return choice;
}

void
ShadowPolicy::endPathWrite()
{
    _rdQueue.clear();
    _hdQueue.clear();
}

void
ShadowPolicy::onLlcMiss(Addr addr)
{
    _hot.touch(addr);
}

void
ShadowPolicy::onRequestClassified(bool wasDummy)
{
    const unsigned before = _partition.level();
    _partition.onRequest(wasDummy);
    if (_partition.level() != before)
        ++_stats.partitionAdjustments;
}

unsigned
ShadowPolicy::partitionLevel() const
{
    return _partition.level();
}

} // namespace sboram
