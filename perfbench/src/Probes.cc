#include "Probes.hh"

#include <algorithm>

#include "Bench.hh"
#include "mem/AddressMap.hh"

namespace perfbench {

namespace {

/** Adds the host time of its scope to a running total. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &total)
        : _total(total), _t0(Clock::now())
    {
    }
    ~ScopedTimer() { _total += since(_t0); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    double &_total;
    Clock::time_point _t0;
};

std::unique_ptr<DuplicationPolicy>
makePolicy(Scheme scheme, const OramConfig &oramCfg,
           const ShadowConfig &shadowCfg, bool counted,
           ShadowPolicy *&shadow, CountingPolicy *&counting)
{
    if (scheme != Scheme::Shadow)
        return nullptr;
    auto sp = std::make_unique<ShadowPolicy>(shadowCfg,
                                             oramCfg.deriveLevels());
    shadow = sp.get();
    if (!counted)
        return sp;
    auto cp = std::make_unique<CountingPolicy>(std::move(sp));
    counting = cp.get();
    return cp;
}

/** Slot-grid interval, sized exactly as runSystem sizes it. */
Cycles
portInterval(TinyOram &oram, const SystemConfig &cfg)
{
    Cycles interval = cfg.tpInterval;
    if (interval != 0)
        return interval;
    const Cycles path = oram.estimatePathReadLatency();
    return cfg.timingProtection
        ? path + 2 * path / cfg.oram.evictionRate
        : path;
}

} // namespace

void
CountingPolicy::beginPathWrite(LeafLabel leaf)
{
    ScopedTimer t(_counts.hookSeconds);
    _inner->beginPathWrite(leaf);
}

void
CountingPolicy::onBlockPlaced(const PlacedBlock &placed)
{
    ScopedTimer t(_counts.hookSeconds);
    ++_counts.placed;
    _inner->onBlockPlaced(placed);
}

void
CountingPolicy::offerStashShadow(Addr addr, LeafLabel leaf,
                                 std::uint32_t version,
                                 unsigned rearLevel, unsigned maxLevel)
{
    ScopedTimer t(_counts.hookSeconds);
    ++_counts.offers;
    _inner->offerStashShadow(addr, leaf, version, rearLevel, maxLevel);
}

std::optional<ShadowChoice>
CountingPolicy::selectShadow(unsigned level)
{
    ScopedTimer t(_counts.hookSeconds);
    ++_counts.selectCalls;
    std::optional<ShadowChoice> choice = _inner->selectShadow(level);
    if (choice)
        ++_counts.selectChosen;
    return choice;
}

void
CountingPolicy::endPathWrite()
{
    ScopedTimer t(_counts.hookSeconds);
    _inner->endPathWrite();
}

void
CountingPolicy::onLlcMiss(Addr addr)
{
    ScopedTimer t(_counts.hookSeconds);
    _inner->onLlcMiss(addr);
}

void
CountingPolicy::onRequestClassified(bool wasDummy)
{
    ScopedTimer t(_counts.hookSeconds);
    _inner->onRequestClassified(wasDummy);
}

Controller::Controller(Scheme scheme, const OramConfig &oramCfg,
                       const ShadowConfig &shadowCfg,
                       const DramTiming &timing,
                       const DramGeometry &geometry, bool counted)
    : dram(timing, geometry),
      oram(oramCfg, dram,
           makePolicy(scheme, oramCfg, shadowCfg, counted, shadow,
                      counting))
{
}

BenchPort::BenchPort(TinyOram &oram, const SystemConfig &cfg,
                     bool probed, std::size_t expectedRequests)
    : _oram(oram), _tp(cfg.timingProtection),
      _interval(portInterval(oram, cfg)),
      _virtualDummies(cfg.virtualDummies), _probed(probed),
      _idleThreshold(std::max<Cycles>(_interval, 1))
{
    _latencies.reserve(expectedRequests);
}

AccessResult
BenchPort::access(Addr addr, Op op, Cycles start)
{
    if (!_probed)
        return _oram.access(addr, op, start);
    ScopedTimer t(_probe.oramSeconds);
    return _oram.access(addr, op, start);
}

void
BenchPort::fireDummy(Cycles slot)
{
    if (!_probed) {
        _oram.dummyAccess(slot);
        return;
    }
    ScopedTimer t(_probe.oramSeconds);
    _oram.dummyAccess(slot);
}

MemoryReply
BenchPort::request(Addr addr, Op op, Cycles issueTime)
{
    const Clock::time_point t0 =
        _probed ? Clock::now() : Clock::time_point{};
    Cycles forwardAt = 0;
    if (_oram.wouldHitStash(addr, op)) {
        forwardAt = access(addr, op, issueTime).forwardAt;
    } else {
        Cycles start = issueTime;
        if (_tp) {
            while (_nextSlot < issueTime) {
                fireDummy(_nextSlot);
                _nextSlot += _interval;
            }
            start = _nextSlot;
            _nextSlot += _interval;
        } else if (_virtualDummies && _lastComplete != 0 &&
                   issueTime > _lastComplete + _idleThreshold) {
            const Cycles gap = issueTime - _lastComplete;
            const std::uint64_t n =
                std::min<std::uint64_t>(gap / _idleThreshold, 4);
            for (std::uint64_t i = 0; i < n; ++i)
                _oram.policy().onRequestClassified(true);
        }
        const AccessResult r = access(addr, op, start);
        _lastComplete = r.completeAt;
        forwardAt = r.forwardAt;
    }
    _latencies.push_back(forwardAt - issueTime);
    if (_probed) {
        _probe.sampleStash(_oram.stash());
        _probe.requestSeconds += since(t0);
    }
    return MemoryReply{forwardAt};
}

DramReplay
replayPaths(const std::vector<TraceEvent> &paths, const TinyOram &oram,
            const DramTiming &timing, const DramGeometry &geometry)
{
    const OramConfig &cfg = oram.config();
    const unsigned leafLevel = oram.geometry().leafLevel;
    const unsigned ttl = cfg.treetopLevels;
    const AddressMap map(geometry, leafLevel + 1, cfg.slotsPerBucket);
    DramModel dram(timing, geometry);
    DramReplay out;
    std::vector<BucketIndex> buckets;
    std::vector<DramCoord> coords;
    Cycles t = 0;
    for (const TraceEvent &ev : paths) {
        oram.tree().bucketsOnPath(ev.leaf, buckets);
        coords.clear();
        // Reads stream root to leaf, path writes leaf to root, as
        // TinyOram issues them; the treetop stays on chip.
        for (unsigned i = ttl; i <= leafLevel; ++i) {
            const unsigned level = ev.isWrite ? leafLevel + ttl - i : i;
            for (unsigned s = 0; s < cfg.slotsPerBucket; ++s)
                coords.push_back(map.mapSlot(buckets[level], s));
        }
        const Clock::time_point t0 = Clock::now();
        const BatchTiming batch =
            ev.isWrite ? dram.accessBatch(t, coords, true)
                       : dram.accessBatch(t, coords, false,
                                          cfg.xorCompression,
                                          cfg.slotsPerBucket);
        out.seconds += since(t0);
        t = batch.finish;
    }
    out.stats = dram.stats();
    return out;
}

bool
sameDramCounts(const DramStats &a, const DramStats &b)
{
    return a.activates == b.activates && a.reads == b.reads &&
           a.writes == b.writes && a.rowHits == b.rowHits &&
           a.rowMisses == b.rowMisses;
}

bool
sameOramStats(const OramStats &a, const OramStats &b)
{
    Fingerprint fa, fb;
    return fa.add(a).value() == fb.add(b).value();
}

Fingerprint &
Fingerprint::add(const OramStats &s)
{
    for (std::uint64_t v :
         {s.requests, s.stashHits, s.shadowStashHits, s.onChipHits,
          s.shadowForwards, s.pathReads, s.pathWrites, s.dummyAccesses,
          s.posMapAccesses, s.shadowsWritten, s.evictions,
          s.levelsAdvanced, s.faultsInjected, s.faultsDetected,
          s.faultsRecovered, s.faultsUnrecoverable, s.slotsQuarantined,
          s.quarantineEvacuations, s.degradedEntries, s.degradedTicks,
          s.emergencyEvictions})
        _s.u64(v);
    return *this;
}

Fingerprint &
Fingerprint::add(const DramStats &s)
{
    for (std::uint64_t v :
         {s.activates, s.reads, s.writes, s.rowHits, s.rowMisses})
        _s.u64(v);
    return *this;
}

Cycles
percentile(std::vector<Cycles> sample, unsigned q)
{
    if (sample.empty())
        return 0;
    const std::uint64_t n = sample.size();
    const std::uint64_t k = std::max<std::uint64_t>((n * q + 999) / 1000, 1);
    std::nth_element(sample.begin(),
                     sample.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     sample.end());
    return sample[k - 1];
}

} // namespace perfbench
