#include "TinyOram.hh"

#include <algorithm>

#include "common/Errors.hh"
#include "obs/FlightRecorder.hh"
#include "obs/Observer.hh"

namespace sboram {

namespace {

/** Marker for "real copy currently lives in the stash". */
constexpr std::uint8_t kInStash = 0xff;

} // namespace

TinyOram::TinyOram(const OramConfig &cfg, DramModel &dram,
                   std::unique_ptr<DuplicationPolicy> policy)
    : _cfg(cfg), _geo(OramGeometry::derive(cfg)),
      _tree(_geo, cfg.slotsPerBucket, cfg.payloadEnabled,
            cfg.blockBytes / 8),
      _stash(cfg.stashCapacity),
      _posMap(_geo.totalBlocks),
      _recursion(cfg),
      _plb(cfg.plbBytes, cfg.blockBytes),
      _dram(dram),
      _addressMap(dram.geometry(), _geo.leafLevel + 1,
                  cfg.slotsPerBucket),
      _policy(policy ? std::move(policy)
                     : std::make_unique<NullDuplicationPolicy>()),
      _health(cfg.health, _geo.numSlots),
      _remapRng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x1234),
      _dummyRng(cfg.seed * 0xd6e8feb86659fd93ULL + 0x5678)
{
    SB_ASSERT(_recursion.totalBlocks() == _geo.totalBlocks,
              "address space mismatch");
    if (cfg.payloadEnabled) {
        SB_ASSERT(_geo.totalBlocks <= (std::uint64_t(1) << 18),
                  "payload mode is for functional-scale trees");
    }
    SB_ASSERT(cfg.treetopLevels <= _geo.leafLevel,
              "treetop deeper than the tree");
    if (cfg.fault.enabled()) {
        if (!cfg.payloadEnabled)
            SB_FATAL("fault injection corrupts stored ciphertexts "
                     "and needs payload mode (payloadEnabled)");
        _faults = std::make_unique<FaultInjector>(cfg.fault);
    }
    _realLevel.assign(_geo.totalBlocks, kInStash);
    _stash.setHotnessOracle(_policy.get());
    if (cfg.payloadEnabled) {
        _stash.setPayloadRecycler(&_payloadPool);
        _placedIdx.assign(_geo.totalBlocks, 0);
    }
    initializeTree();
}

void
TinyOram::setObserver(obs::RunObserver *obs)
{
    _obs = obs;
    if (_flight != nullptr)
        _flight->attachTrace(obs ? obs->trace() : nullptr);
    if (!_faults)
        return;
    if (obs == nullptr) {
        _faults->setObserver(FaultInjector::Observer{});
        return;
    }
    _faults->setObserver([this](FaultKind, std::uint64_t,
                                bool reapplied) {
        traceInstant(_obsPathTrack,
                     reapplied ? "fault_stuck_reapplied"
                               : "fault_injected",
                     _obsPathStart);
    });
}

void
TinyOram::traceInstant(unsigned track, const char *name, Cycles ts) const
{
    if (obs::TraceSession *t = _obs ? _obs->trace() : nullptr)
        t->instant(track, name, ts);
}

void
TinyOram::patternPayloadInto(Addr addr, std::uint32_t version,
                             std::vector<std::uint64_t> &out) const
{
    // Loop bound from the config, not from the (secret) payload
    // buffer being overwritten — same length, but structurally
    // independent of block contents.
    const std::size_t words = _cfg.blockBytes / 8;
    out.resize(words);
    PrfKey key{0xfeedfacecafebeefULL, 0x0123456789abcdefULL};
    for (std::size_t i = 0; i < words; ++i)
        out[i] = prf64(key, (addr << 20) ^ version, i);
}

void
TinyOram::initializeTree()
{
    // Assign every block a random leaf and place it greedily from the
    // leaf level upwards; anything that does not fit starts in the
    // stash (rare at 50 % utilisation).  Tree placements are
    // encrypted through encryptBatch a path's worth at a time, in
    // placement order — the nonce order per-block encryption drew —
    // so the scratch stays path-sized, not tree-sized.
    const std::uint64_t words = _cfg.blockBytes / 8;
    const std::size_t chunk =
        (_geo.leafLevel + 1) * std::size_t(_cfg.slotsPerBucket);
    std::vector<std::uint64_t> plains;
    std::vector<std::uint64_t> ks;
    std::vector<const std::uint64_t *> plainPtrs;
    std::vector<CipherRef> refs;
    if (_cfg.payloadEnabled) {
        plains.resize(chunk * words);
        ks.resize(chunk * words);
        plainPtrs.reserve(chunk);
        refs.reserve(chunk);
    }
    auto flush = [&] {
        _codec.encryptBatch(plainPtrs.data(), refs.data(), refs.size(),
                            words, ks.data());
        plainPtrs.clear();
        refs.clear();
    };
    std::vector<std::uint64_t> plain;  // Reused across all blocks.
    for (Addr addr = 0; addr < _geo.totalBlocks; ++addr) {
        const LeafLabel leaf = randomLeaf();
        _posMap.update(addr, leaf);
        bool placed = false;
        for (int level = static_cast<int>(_geo.leafLevel);
             level >= 0 && !placed; --level) {
            const BucketIndex b =
                _tree.bucketOnPath(leaf, static_cast<unsigned>(level));
            for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
                Slot &slot = _tree.slot(b, s);
                if (slot.valid())
                    continue;
                slot.type = BlockType::Real;
                slot.addr = static_cast<std::uint32_t>(addr);
                slot.leaf = static_cast<std::uint32_t>(leaf);
                slot.version = 0;
                _realLevel[addr] = static_cast<std::uint8_t>(level);
                if (_cfg.payloadEnabled) {
                    patternPayloadInto(addr, 0, plain);
                    std::uint64_t *dst =
                        plains.data() + refs.size() * words;
                    std::copy(plain.begin(), plain.end(), dst);
                    plainPtrs.push_back(dst);
                    refs.push_back(
                        _tree.cipherRef(_tree.slotIndex(b, s)));
                    if (refs.size() == chunk)
                        flush();
                }
                placed = true;
                break;
            }
        }
        if (!placed) {
            StashEntry e;
            e.addr = addr;
            e.leaf = leaf;
            e.version = 0;
            e.type = BlockType::Real;
            if (_cfg.payloadEnabled)
                patternPayloadInto(addr, 0, e.payload);
            _stash.insert(std::move(e));
            _realLevel[addr] = kInStash;
        }
    }
    if (!refs.empty())
        flush();
}

LeafLabel
TinyOram::nextEvictionLeaf()
{
    // Reverse-lexicographic order [18], [34]: bit-reverse a counter
    // over L bits so successive evictions spread over the tree.
    std::uint64_t g = _evictionCounter++;
    LeafLabel leaf = 0;
    for (unsigned bit = 0; bit < _geo.leafLevel; ++bit) {
        leaf = (leaf << 1) | (g & 1);
        g >>= 1;
    }
    return leaf;
}

Cycles
TinyOram::estimatePathReadLatency()
{
    DramModel probe(_dram.timing(), _dram.geometry());
    std::vector<DramCoord> buckets;
    for (unsigned level = _cfg.treetopLevels;
         level <= _geo.leafLevel; ++level)
        buckets.push_back(
            _addressMap.mapBucket(_tree.bucketOnPath(0, level)));
    return probe.accessPath(0, buckets, _cfg.slotsPerBucket, false)
               .finish +
           _cfg.aesLatency;
}

void
TinyOram::maybeInjectFaults(LeafLabel leaf)
{
    // Scheduled off the path-read counter: one deterministic draw
    // per path access, independent of thread count and of how many
    // requests an access chain bundles.
    const std::uint64_t tick = _stats.pathReads;
    // Spatially correlated storms only strike their configured
    // subtree; other paths read healthy memory.
    if (!_faults->targetsLeaf(leaf, _geo.leafLevel))
        return;
    if (!_faults->shouldInject(tick))
        return;

    // Candidate targets: occupied off-chip slots on this path (the
    // treetop lives on-chip and is not exposed to DRAM faults).
    // Member scratch: this runs inside the pathRead hot path, so the
    // candidate list reuses its capacity across accesses.
    std::vector<std::uint64_t> &targets = _faultTargetScratch;
    targets.clear();
    targets.reserve((_geo.leafLevel + 1 - _cfg.treetopLevels) *
                    _cfg.slotsPerBucket);
    for (unsigned level = _cfg.treetopLevels; level <= _geo.leafLevel;
         ++level) {
        const BucketIndex b = _tree.bucketOnPath(leaf, level);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            if (_tree.slot(b, s).valid())
                targets.push_back(_tree.slotIndex(b, s));
        }
    }
    if (targets.empty())
        return;

    const std::uint64_t slotIdx =
        targets[_faults->pickTarget(tick, targets.size())];
    _faults->corrupt(_tree.cipherRef(slotIdx), tick,
                     _faults->pickKind(tick), slotIdx);
    ++_stats.faultsInjected;
}

bool
TinyOram::recoverRealPayload(const Slot &slot, unsigned level,
                             LeafLabel leaf,
                             std::vector<std::uint64_t> &out)
{
    // 1. A stash shadow (includes shadows this very path read pulled
    //    in from shallower levels).
    if (const StashEntry *sh = _stash.find(slot.addr);
        sh && sh->isShadow() && sh->version == slot.version) {
        out = sh->payload;
        return true;
    }

    // 2. Shadows vacuumed into the eviction path buffer (already
    //    decrypted and verified when they entered it).
    for (const StashEntry &buf : _evictShadows) {
        if (buf.addr == slot.addr && buf.version == slot.version) {
            out = buf.payload;
            return true;
        }
    }

    // 3. A shallower tree slot on this path: Rule-2 keeps every tree
    //    shadow strictly above its real copy, and Rule-1 keeps it on
    //    the block's own path, whose buckets above `level` coincide
    //    with this path's.
    for (unsigned lvl = 0; lvl < level; ++lvl) {
        const BucketIndex b = _tree.bucketOnPath(leaf, lvl);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const Slot &cand = _tree.slot(b, s);
            if (!cand.isShadow() || cand.addr != slot.addr ||
                cand.version != slot.version)
                continue;
            const std::uint64_t candIdx = _tree.slotIndex(b, s);
            // A parked shadow's authoritative copy is on chip and by
            // construction uncorrupted.
            if (auto sp = _spare.find(candIdx); sp != _spare.end()) {
                out = sp->second;
                return true;
            }
            if (_codec.verifyDecrypt(_tree.cipherView(candIdx), out))
                return true;
            // That copy is corrupt too; keep looking.
        }
    }
    return false;
}

void
TinyOram::handleUnrecoverable(const Slot &slot, BucketIndex bucket,
                              unsigned level,
                              std::vector<std::uint64_t> &payload)
{
    setPanicDiag(strprintf(
        "event=corruption access=%llu path_reads=%llu bucket=%llu "
        "level=%u addr=%u version=%u recovered=0",
        static_cast<unsigned long long>(_accessCounter),
        static_cast<unsigned long long>(_stats.pathReads),
        static_cast<unsigned long long>(bucket), level, slot.addr,
        slot.version));

    switch (_cfg.fault.onUnrecoverable) {
    case UnrecoverablePolicy::Throw:
        throw CorruptionError(
            strprintf("integrity violation at bucket %llu level %u: "
                      "block %u has no intact copy",
                      static_cast<unsigned long long>(bucket), level,
                      slot.addr),
            _accessCounter, bucket, level,
            /*transient=*/_faults != nullptr);
    case UnrecoverablePolicy::Count:
        // Declare the block lost but keep simulating: deterministic
        // zero data so downstream timing stays reproducible.
        payload.assign(_cfg.blockBytes / 8, 0);
        return;
    case UnrecoverablePolicy::Panic:
        break;
    }
    SB_PANIC("integrity violation at bucket %llu level %u "
             "(block %u unrecoverable)",
             static_cast<unsigned long long>(bucket), level,
             slot.addr);
}

TinyOram::Take
TinyOram::takeOf(const Slot &slot, ReadMode mode, Addr wantAddr)
{
    if (mode == ReadMode::Evict ||
        (mode == ReadMode::Request && slot.addr == wantAddr))
        return Take::Consume;
    if (mode == ReadMode::Request && slot.isShadow())
        return Take::Copy;
    return Take::Leave;  // RAW read-only: leave other blocks alone.
}

SB_HOT TinyOram::PathReadOutcome
TinyOram::pathRead(LeafLabel leaf, ReadMode mode, Addr wantAddr,
                   Cycles startTime)
{
    ++_stats.pathReads;
    if (_traceSink)
        _traceSink->onPathAccess(leaf, false);
    if (_obs) {
        // Evictions drain in the background and outlive the request
        // that triggered them, so they get their own trace track.
        _obsPathTrack = mode == ReadMode::Evict
            ? obs::kTrackEviction
            : obs::kTrackPipeline;
        _obsPathStart = startTime;
    }
    if (_faults)
        maybeInjectFaults(leaf);

    const unsigned ttl = _cfg.treetopLevels;
    _tree.bucketsOnPath(leaf, _pathBuckets);
    // The path is public, so prefetching it leaks nothing: start
    // loading every bucket's slot metadata while the DRAM schedule is
    // computed.
    for (unsigned level = 0; level <= _geo.leafLevel; ++level)
        __builtin_prefetch(&_tree.slot(_pathBuckets[level], 0));
    _readCoords.clear();
    for (unsigned level = ttl; level <= _geo.leafLevel; ++level)
        _readCoords.push_back(_addressMap.mapBucket(_pathBuckets[level]));
    // Valid until the next accessPath: nothing below schedules DRAM.
    const BatchTiming &batch =
        _dram.accessPath(startTime, _readCoords, _cfg.slotsPerBucket,
                         false, _cfg.xorCompression);

    PathReadOutcome out;
    out.finish = std::max(batch.finish,
                          startTime + _cfg.onChipLatency) +
                 _cfg.aesLatency;

    if (obs::TraceSession *t = _obs ? _obs->trace() : nullptr) {
        t->complete(_obsPathTrack,
                    mode == ReadMode::Evict ? "evict_path_read"
                                            : "path_read",
                    startTime, out.finish - startTime);
        t->complete(_obsPathTrack, "crypto",
                    out.finish - _cfg.aesLatency, _cfg.aesLatency);
    }

    if (_cfg.payloadEnabled && mode != ReadMode::Dummy)
        verifyTakenSlots(mode, wantAddr);

    std::size_t dramIdx = 0;
    for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
        const BucketIndex b = _pathBuckets[level];
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const bool onChip = level < ttl;
            const Cycles ready = onChip
                ? startTime + _cfg.onChipLatency
                : batch.completion[dramIdx++];
            Slot &slot = _tree.slot(b, s);
            if (!slot.valid())
                continue;

            // Early forwarding of the intended block (or a shadow
            // copy of it): record the earliest matching slot.  XOR
            // compression cannot forward early — the intended block
            // is reconstructed only after the whole path is read.
            if (mode == ReadMode::Request && slot.addr == wantAddr) {
                const Cycles fwd = _cfg.xorCompression
                    ? out.finish
                    : ready + _cfg.aesLatency;
                if (fwd < out.forwardAt) {
                    out.forwardAt = fwd;
                    out.forwardLevel = level;
                    out.usedShadow =
                        !_cfg.xorCompression && slot.isShadow();
                    out.foundInTreetop = onChip;
                }
            }

            // A Dummy read discards the contents: the tree stays
            // untouched.
            const Take take = takeOf(slot, mode, wantAddr);
            if (take != Take::Leave)
                takeSlot(slot, b, s, level, leaf, mode,
                         take == Take::Consume, ready);
        }
    }
    return out;
}

SB_HOT void
TinyOram::verifyTakenSlots(ReadMode mode, Addr wantAddr)
{
    // The integrity check of the Tiny ORAM baseline [18], batched:
    // the same take rule and root-to-leaf order as pathRead's take
    // loop, so takeSlot finds its verdict at the cursor.  Spare-
    // parked slots are skipped — their stripe is erased and the
    // on-chip copy is authoritative.  Verdicts taken up front stay
    // valid through the loop: healing a slot only clears that slot
    // or reads shallower ones, and nothing rewrites a later slot.
    _verifySlots.clear();
    _verifyViews.clear();
    _verdictCursor = 0;
    for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
        const BucketIndex b = _pathBuckets[level];
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const Slot &slot = _tree.slot(b, s);
            const std::uint64_t slotIdx = _tree.slotIndex(b, s);
            if (!slot.valid() ||
                takeOf(slot, mode, wantAddr) == Take::Leave ||
                _spare.count(slotIdx) != 0)
                continue;
            _verifySlots.push_back(slotIdx);
            _verifyViews.push_back(_tree.cipherView(slotIdx));
        }
    }
    _verdicts.resize(_verifySlots.size());
    _codec.verifyBatch(_verifyViews.data(), _verifyViews.size(),
                       _verdicts.data());
}

SB_HOT void
TinyOram::takeSlot(Slot &slot, BucketIndex b, unsigned s, unsigned level,
                   LeafLabel leaf, ReadMode mode, bool consume,
                   Cycles ready)
{
    const std::uint64_t slotIdx = _tree.slotIndex(b, s);
    StashEntry e;
    e.addr = slot.addr;
    e.leaf = slot.leaf;
    e.version = slot.version;
    e.type = slot.type;
    if (_cfg.payloadEnabled) {
        // A request-read shadow whose address the stash already holds
        // merges into that entry and Stash::insert discards its
        // payload: skip the buffer and the decrypt (the verdict is
        // still consumed and a failed one still heals).
        const bool merges = mode == ReadMode::Request && e.isShadow() &&
                            _stash.find(e.addr) != nullptr;
        // Decrypt into a pooled buffer (decryptInto reuses its
        // capacity) instead of allocating per block.
        if (!merges)
            e.payload = _payloadPool.acquire(_cfg.blockBytes / 8);
        // Tier-1 spare store: a remapped cell's authoritative copy
        // lives on chip — the bad ciphertext stripe is never read, so
        // it can neither fault nor need healing.  Consumption retires
        // the parked copy; a non-consuming shadow copy leaves it in
        // place.  Otherwise the slot's integrity verdict is ready
        // (verifyTakenSlots).
        if (auto sp = _spare.find(slotIdx); sp != _spare.end()) {
            if (!merges)
                e.payload.assign(sp->second.begin(), sp->second.end());
            if (consume)
                _spare.erase(sp);
        } else {
            SB_ASSERT(_verdictCursor < _verifySlots.size() &&
                          _verifySlots[_verdictCursor] == slotIdx,
                      "path-read verdict out of step at slot %llu",
                      static_cast<unsigned long long>(slotIdx));
            const std::size_t at = _verdictCursor++;
            if (_verdicts[at] != 0) {
                if (!merges)
                    _codec.decryptInto(_verifyViews[at], e.payload);
            } else {
                healCorruptRead(slot, slotIdx, b, level, leaf, ready,
                                e.payload);
                if (!slot.valid()) {
                    // A corrupt shadow: its slot is already
                    // reclaimed.
                    _payloadPool.release(std::move(e.payload));
                    return;
                }
            }
        }
    }
    if (mode == ReadMode::Evict && e.isShadow()) {
        // Keep eviction-path shadows in the path buffer for the
        // imminent path write (deduplicated by address).
        bool seen = false;
        for (const StashEntry &buf : _evictShadows) {
            if (buf.addr == e.addr) {
                seen = true;
                break;
            }
        }
        if (!seen)
            _evictShadows.push_back(std::move(e));
        else
            _payloadPool.release(std::move(e.payload));
    } else {
        _stash.insert(std::move(e));
    }

    if (consume) {
        if (slot.isReal())
            _realLevel[slot.addr] = kInStash;
        slot.clear();
        if (_cfg.payloadEnabled)
            _tree.eraseCipher(slotIdx);
    }
    // copyShadow without consume: the tree copy stays valid; the
    // stash now holds an identical (replaceable) copy.
}

SB_HOT void
TinyOram::healCorruptRead(Slot &slot, std::uint64_t slotIdx,
                          BucketIndex b, unsigned level, LeafLabel leaf,
                          Cycles ready,
                          std::vector<std::uint64_t> &payload)
{
    // A failed tag on a *shadow* copy is harmless — the real copy is
    // authoritative — so the slot is simply dropped.  A failed tag on
    // a *real* copy triggers self-healing: rebuild the payload from a
    // same-version shadow copy (the duplication the policies maintain
    // for latency doubles as redundancy) before declaring the block
    // lost.
    const bool shadow = slot.isShadow();
    traceInstant(_obsPathTrack, "fault_detected", ready);
    if (recordCorruptSlot(slot, slotIdx, ready))
        traceInstant(_obsPathTrack, "slot_quarantined", ready);
    if (shadow) {
        traceInstant(_obsPathTrack, "fault_recovered", ready);
    } else if (recoverRealPayload(slot, level, leaf, payload)) {
        ++_stats.faultsRecovered;
        traceInstant(_obsPathTrack, "fault_recovered", ready);
    } else {
        ++_stats.faultsUnrecoverable;
        traceInstant(_obsPathTrack, "fault_unrecoverable", ready);
        // sblint:allow-next-line(hot-path-alloc): unrecoverable-fault exit — formats the fatal diagnostic once, then the ladder unwinds; never on a healthy access
        handleUnrecoverable(slot, b, level, payload);
    }
}

bool
TinyOram::recordCorruptSlot(Slot &slot, std::uint64_t slotIdx, Cycles at)
{
    ++_stats.faultsDetected;
    // Tier-1 bookkeeping: repeated detected failures of one physical
    // slot quarantine it.
    const bool quarantined = _health.recordSlotFailure(slotIdx);
    if (quarantined) {
        ++_stats.slotsQuarantined;
        if (_flight != nullptr)
            _flight->record(at, obs::FlightKind::SlotQuarantine,
                            slotIdx);
    }
    if (slot.isShadow()) {
        // A corrupt shadow is a lost redundant copy, never lost data:
        // reclaim the slot.
        ++_stats.faultsRecovered;
        slot.clear();
        _tree.eraseCipher(slotIdx);
    }
    return quarantined;
}

void
TinyOram::parkInSpare(std::uint64_t slotIdx,
                      const std::vector<std::uint64_t> &plain)
{
    _spare[slotIdx].assign(plain.begin(),
                           plain.begin() + _cfg.blockBytes / 8);
    _tree.eraseCipher(slotIdx);
    ++_stats.quarantineEvacuations;
}

bool
TinyOram::reapplyStuckCell(std::uint64_t slotIdx)
{
    if (!_faults ||
        !_faults->onSlotRewritten(slotIdx, _tree.cipherRef(slotIdx)))
        return false;
    ++_stats.faultsInjected;
    return true;
}

SB_HOT Cycles
TinyOram::pathWrite(LeafLabel leaf, Cycles startTime)
{
    ++_stats.pathWrites;
    if (_traceSink)
        _traceSink->onPathAccess(leaf, true);
    if (_obs) {
        _obsPathTrack = obs::kTrackEviction;
        _obsPathStart = startTime;
    }
    _policy->beginPathWrite(leaf);
    _tree.bucketsOnPath(leaf, _pathBuckets);

    SB_ASSERT(_pendingEnc.empty() && _placedAddrs.empty(),
              "path-write scratch not drained");
    if (_cfg.recirculateShadows)
        offerShadows(leaf);
    placeGreedy(leaf);
    fillShadows();
    encryptPending();
    returnUnplacedShadows();

    _policy->endPathWrite();

    const BatchTiming &batch =
        _dram.accessPath(startTime + _cfg.aesLatency, _writeCoords,
                         _cfg.slotsPerBucket, true);
    const Cycles done =
        std::max(batch.finish, startTime + _cfg.onChipLatency);
    if (obs::TraceSession *t = _obs ? _obs->trace() : nullptr) {
        // The modelled crypto phase: the whole path is re-encrypted
        // (one batch keystream pass) before the burst leaves the chip.
        t->complete(obs::kTrackEviction, "crypto", startTime,
                    _cfg.aesLatency);
        t->complete(obs::kTrackEviction, "path_write", startTime,
                    done - startTime);
    }
    return done;
}

std::uint32_t
TinyOram::placedBufIdx(Addr addr)
{
    std::uint32_t &ref = _placedIdx[addr];
    if (ref == 0) {
        const std::size_t idx = _placedAddrs.size();
        // Grow the cache against its own high-water counter, not
        // _placedBufs.size(): the buffers hold payload words, and
        // occupancy is placement bookkeeping that must stay
        // independent of them.
        if (_placedBufsMade <= idx) {
            _placedBufs.emplace_back();
            ++_placedBufsMade;
        }
        _placedAddrs.push_back(addr);
        ref = static_cast<std::uint32_t>(idx) + 1;
    }
    return ref - 1;
}

SB_HOT void
TinyOram::offerShadows(LeafLabel leaf)
{
    // Rule-1 bounds each offer by the shadow's label's common prefix
    // with this path, Rule-2 by its real copy's tree level.  A shadow
    // vacuumed by this eviction's path read may have had its real copy
    // come off this same path into the stash; that copy's final
    // location is only known after the greedy placements, so the offer
    // uses the label bound and the shadow-fill pass re-checks Rule-2
    // before committing a slot.
    auto offer = [&](const StashEntry &e) {
        const std::uint8_t realLvl = _realLevel[e.addr];
        const bool realInStash = realLvl == kInStash;
        const unsigned rearLevel =
            realInStash ? _geo.leafLevel : realLvl;
        const unsigned maxLevel = std::min<unsigned>(
            _tree.commonLevel(e.leaf, leaf),
            realInStash ? _geo.leafLevel + 1 : realLvl);
        if (_cfg.payloadEnabled)
            _placedBufs[placedBufIdx(e.addr)] = e.payload;
        _policy->offerStashShadow(e.addr, e.leaf, e.version,
                                  rearLevel, maxLevel);
    };
    // Stash shadows first, in seq order (forEachShadow's order): the
    // offer order decides which candidates the duplication queues pop
    // first.
    _stash.forEachShadow([&](const StashEntry &e) {
        SB_ASSERT(_realLevel[e.addr] != kInStash,
                  "stash shadow coexists with a stash real copy");
        offer(e);
    });
    for (const StashEntry &e : _evictShadows)
        offer(e);
}

SB_HOT void
TinyOram::placeGreedy(LeafLabel leaf)
{
    // Pass 1 — plan and perform the greedy placements, leaf to root
    // (deepest-possible placement), collecting the dummy slots and
    // the DRAM write coordinates.
    _dummyScratch.clear();
    _writeCoords.clear();

    // One bucketing pass + one sort for the whole eviction: each
    // entry's common-prefix level with this path is computed once,
    // replacing the per-level stash rescan (the measured pathWrite
    // hot spot).  Placements mark entries consumed in the plan and
    // remove them from the stash, so shallower levels see exactly
    // what a fresh rescan would.
    Stash::EvictionPlan &plan = _planScratch;
    _stash.planEvictionInto(plan, [&](LeafLabel blockLeaf) {
        return _tree.commonLevel(blockLeaf, leaf);
    });

    for (int levelI = static_cast<int>(_geo.leafLevel); levelI >= 0;
         --levelI) {
        const unsigned level = static_cast<unsigned>(levelI);
        const BucketIndex b = _pathBuckets[level];

        // Tier-1 note: quarantined slots stay full-fledged placement
        // targets.  Their payloads are diverted into the on-chip
        // spare store by the encrypt phase, so quarantine never
        // shrinks capacity — capacity loss would retain blocks in the
        // stash and leak fault state through the stash-hit pattern
        // (see FaultObliviousnessTest).
        unsigned slotCursor = 0;
        plan.forEachEligible(level, [&](Stash::PlanEntry &cand) {
            if (slotCursor >= _cfg.slotsPerBucket)
                return false;
            if (cand.shadow) {
                // Stash shadows are not placed greedily (that would
                // sink them right back next to their real copy);
                // they re-enter the tree through the shadow-fill
                // pass, which puts them where they help.
                return true;
            }
            StashEntry *entry = _stash.find(cand.addr);
            SB_ASSERT(entry != nullptr, "eligible entry vanished");

            Slot value;
            value.type = entry->type;
            value.addr = static_cast<std::uint32_t>(entry->addr);
            value.leaf = static_cast<std::uint32_t>(entry->leaf);
            value.version = entry->version;

            const std::uint64_t slotIdx = _tree.slotIndex(b, slotCursor);
            _tree.slot(b, slotCursor) = value;
            if (_cfg.payloadEnabled) {
                // The entry leaves the stash right below; hand its
                // buffer to the shadow-fill pass instead of copying,
                // and defer the encryption to the encrypt phase
                // (nonce order is the pending-record order, which
                // matches the per-slot encrypt order this replaces).
                const std::uint32_t bi = placedBufIdx(entry->addr);
                std::swap(_placedBufs[bi], entry->payload);
                _pendingEnc.push_back(PendingEncrypt{slotIdx, bi});
            }
            if (value.isReal())
                _realLevel[entry->addr] =
                    static_cast<std::uint8_t>(level);

            PlacedBlock placed;
            placed.addr = entry->addr;
            placed.leaf = entry->leaf;
            placed.version = entry->version;
            placed.level = level;
            placed.wasShadow = entry->isShadow();
            _policy->onBlockPlaced(placed);

            _stash.remove(cand.addr);
            cand.placed = true;
            ++slotCursor;
            return true;
        });

        for (; slotCursor < _cfg.slotsPerBucket; ++slotCursor)
            _dummyScratch.push_back(DummySlot{b, slotCursor, level});

        // DRAM writes for off-chip levels, leaf to root order.
        if (level >= _cfg.treetopLevels)
            _writeCoords.push_back(_addressMap.mapBucket(b));
    }
}

SB_HOT void
TinyOram::fillShadows()
{
    // Pass 2 — fill dummy slots, root side first, so the rear-most
    // candidates land in the slots that advance them the furthest
    // (Algorithm 1, line 4).  All of this happens inside the
    // controller before the re-encrypted path leaves the chip, so
    // the assignment order is externally invisible.
    _evictShadowPlaced.assign(_evictShadows.size(), 0);
    for (auto it = _dummyScratch.rbegin(); it != _dummyScratch.rend();
         ++it) {
        Slot &slot = _tree.slot(it->bucket, it->slot);
        const std::uint64_t slotIdx =
            _tree.slotIndex(it->bucket, it->slot);
        slot.clear();

        // Tier-2 degraded mode and service-layer backpressure both
        // temporarily suppress duplication so shadows do not compete
        // with reals for bucket space.  Externally invisible: slot
        // contents are re-encrypted either way.
        std::optional<ShadowChoice> choice =
            _health.duplicationSuppressed()
                ? std::optional<ShadowChoice>{}
                : _policy->selectShadow(it->level);
        // Rule-2 safety re-check: the real copy must be in the tree,
        // strictly below this slot (a buffered shadow's real copy
        // may have stayed in the stash).
        if (choice) {
            const std::uint8_t realLvl = _realLevel[choice->addr];
            if (realLvl == kInStash || it->level >= realLvl)
                choice.reset();
        }
        if (choice) {
            slot.type = BlockType::Shadow;
            slot.addr = static_cast<std::uint32_t>(choice->addr);
            slot.leaf = static_cast<std::uint32_t>(choice->leaf);
            slot.version = choice->version;
            ++_stats.shadowsWritten;
            if (choice->releaseStashCopy)
                _stash.dropShadowOf(choice->addr);
            for (std::size_t i = 0; i < _evictShadows.size(); ++i) {
                if (_evictShadows[i].addr == choice->addr) {
                    _evictShadowPlaced[i] = 1;
                    break;
                }
            }
            if (_cfg.payloadEnabled) {
                const std::uint32_t ref = _placedIdx[choice->addr];
                SB_ASSERT(ref != 0,
                          "shadow candidate has no payload");
                _pendingEnc.push_back(PendingEncrypt{slotIdx, ref - 1});
            }
        } else if (_cfg.payloadEnabled) {
            _tree.eraseCipher(slotIdx);
            _spare.erase(slotIdx);
        }
    }
}

SB_HOT void
TinyOram::encryptPending()
{
    // Batch crypto: one keystream pass re-encrypts every slot this
    // write placed (pass-1 reals and pass-2 shadows — the slot sets
    // are disjoint, so each slot is encrypted exactly once).
    // Deferring the per-slot encryptions here keeps the placement
    // loops branch-light and lets the codec amortise the PRF setup.
    if (_cfg.payloadEnabled && !_pendingEnc.empty()) {
        const std::uint64_t words = _cfg.blockBytes / 8;
        _encPlains.clear();
        _encRefs.clear();
        const bool qActive = _health.quarantineActive();
        // Counted alongside the pushes: the batch length is placement
        // bookkeeping (pending placements minus quarantine parks, all
        // trace-visible quantities), so the size/branch below must
        // not be derived from a buffer that holds payload pointers.
        std::size_t n = 0;
        for (const PendingEncrypt &pe : _pendingEnc) {
            // Tier-1 spare-store remap: a placement into a
            // quarantined slot parks its plaintext on chip instead of
            // writing the bad cell (whose stripe stays erased).  The
            // placement itself — and therefore stash occupancy and
            // the external trace — is identical to a healthy slot's.
            if (qActive && _health.isQuarantined(pe.slotIdx)) {
                parkInSpare(pe.slotIdx, _placedBufs[pe.bufIdx]);
                continue;
            }
            _encPlains.push_back(_placedBufs[pe.bufIdx].data());
            _encRefs.push_back(_tree.cipherRef(pe.slotIdx));
            ++n;
        }
        if (n > 0) {
            // sblint:allow-next-line(hot-path-alloc): pool-backed scratch; allocation-free once the pool is warm
            std::vector<std::uint64_t> ks =
                _payloadPool.acquire(n * words);
            _codec.encryptBatch(_encPlains.data(), _encRefs.data(), n,
                                words, ks.data());
            _payloadPool.release(std::move(ks));
        }
        // Stuck-cell re-application after the fact: each rewrite is
        // keyed by slot index alone, so doing them after the batch is
        // equivalent to interleaving them with per-slot encrypts.
        // Parked slots are skipped — their cells were not rewritten.
        for (const PendingEncrypt &pe : _pendingEnc) {
            if (!qActive || !_health.isQuarantined(pe.slotIdx))
                reapplyStuckCell(pe.slotIdx);
        }
    }
    _pendingEnc.clear();
    for (Addr a : _placedAddrs)
        _placedIdx[a] = 0;
    _placedAddrs.clear();
}

SB_HOT void
TinyOram::returnUnplacedShadows()
{
    // Buffered shadows that were not re-placed fall back into the
    // stash (replaceable), where merging and LFU displacement apply.
    for (std::size_t i = 0; i < _evictShadows.size(); ++i) {
        StashEntry &e = _evictShadows[i];
        if (!_evictShadowPlaced[i])
            _stash.insert(std::move(e));
        else
            _payloadPool.release(std::move(e.payload));
    }
    _evictShadows.clear();
}

Cycles
TinyOram::maybeEvict(Cycles time)
{
    if (_accessCounter % _cfg.evictionRate != 0)
        return time;
    ++_stats.evictions;
    const LeafLabel leaf = nextEvictionLeaf();
    PathReadOutcome read = pathRead(leaf, ReadMode::Evict,
                                    kInvalidAddr, time);
    // The whole eviction drains in the background: the DRAM model
    // serialises its commands against later path reads at the
    // bank/bus level, so a following request pays exactly the
    // contention the eviction causes rather than a full controller
    // stall (the controller pipelines the read-write access behind
    // the read-only ones).
    _lastEvictionDone = pathWrite(leaf, read.finish);
    return time;
}

Cycles
TinyOram::applyBackpressure(Cycles time)
{
    if (!_health.config().backpressureEnabled())
        return time;
    if (_health.degraded())
        ++_stats.degradedTicks;
    int change = _health.noteStashOccupancy(_stash.realCount());
    if (change > 0) {
        ++_stats.degradedEntries;
        if (_flight != nullptr)
            _flight->record(time, obs::FlightKind::DegradedEnter,
                            _stash.realCount());
    }
    if (_health.degraded()) {
        // One emergency background sweep per access while degraded:
        // an extra eviction on the same deterministic
        // reverse-lexicographic sequence, draining in the background
        // exactly like scheduled evictions.  The sweep appears in
        // the external trace, but the degraded latch depends only on
        // real-stash occupancy — which a clean run under the same
        // health config follows identically — so the trace stays
        // bit-identical to the fault-free run
        // (tests/security/FaultObliviousnessTest.cc).
        ++_stats.emergencyEvictions;
        const LeafLabel leaf = nextEvictionLeaf();
        PathReadOutcome read =
            pathRead(leaf, ReadMode::Evict, kInvalidAddr, time);
        _lastEvictionDone = pathWrite(leaf, read.finish);
        change = _health.noteStashOccupancy(_stash.realCount());
    }
    if (change < 0) {
        if (_flight != nullptr)
            _flight->record(time, obs::FlightKind::DegradedExit,
                            _stash.realCount());
    }
    return time;
}

void
TinyOram::shiftFaultRealization(std::uint32_t minGeneration)
{
    if (_faults)
        _faults->reseedTo(minGeneration);
}

bool
TinyOram::scrubStorage()
{
    if (!_cfg.payloadEnabled)
        return true;
    // Scrubs run between accesses, so the eviction buffer is empty and
    // recoverRealPayload's path-local search sees every copy: a real
    // slot lies on its own label's path (invariant 1), with all of its
    // tree shadows above it (Rule-2).
    SB_ASSERT(_evictShadows.empty(), "scrub inside a path access");
    bool clean = true;
    std::vector<std::uint64_t> plain;
    for (BucketIndex b = 0; b < _tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            Slot &slot = _tree.slot(b, s);
            const std::uint64_t slotIdx = _tree.slotIndex(b, s);
            // Parked slots hold no ciphertext — the on-chip spare
            // copy is authoritative and cannot corrupt.
            if (!slot.valid() || _spare.count(slotIdx) ||
                _codec.verify(_tree.cipherView(slotIdx)))
                continue;
            const bool real = slot.isReal();
            if (real && !recoverRealPayload(slot, AddressMap::levelOf(b),
                                            slot.leaf, plain)) {
                // Leave the slot untouched — the next path read of it
                // performs the full detection/unrecoverable
                // accounting exactly once.
                clean = false;
                continue;
            }
            // Same disposition as the read path: a corrupt shadow is
            // reclaimed, a healed real rewritten or parked.
            recordCorruptSlot(slot, slotIdx, _freeAt);
            if (!real)
                continue;
            ++_stats.faultsRecovered;
            if (_health.quarantineActive() &&
                _health.isQuarantined(slotIdx)) {
                // The cell just crossed the quarantine threshold (or
                // already had): park the healed payload on chip
                // instead of rewriting the bad stripe.
                parkInSpare(slotIdx, plain);
                continue;
            }
            _codec.encryptRef(plain.data(), _tree.cipherRef(slotIdx));
            // A stuck cell may re-corrupt the healed rewrite.
            if (reapplyStuckCell(slotIdx))
                clean = false;
        }
    }
    return clean;
}

AccessResult
TinyOram::accessOne(Addr addr, Cycles startTime, Op op,
                    const std::vector<std::uint64_t> *writeData)
{
    AccessResult res;
    res.start = startTime;

    const LeafLabel leaf = _posMap.lookup(addr);
    PathReadOutcome read = pathRead(leaf, ReadMode::Request, addr,
                                    startTime);
    SB_ASSERT(read.forwardAt != kNoCycles,
              "block %llu missing from path %llu (invariant broken)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(leaf));

    // Remap to a fresh uniformly random leaf (Step-3).
    _posMap.update(addr, randomLeaf());
    StashEntry *entry = _stash.find(addr);
    SB_ASSERT(entry && entry->type == BlockType::Real,
              "intended block not in stash after path read");
    entry->leaf = _posMap.lookup(addr);

    // Apply a write now — the eviction below may push the block
    // straight back into the tree.
    if (op == Op::Write)
        applyWrite(*entry, writeData);

    res.forwardAt = read.forwardAt;
    res.forwardLevel = read.forwardLevel;
    res.usedShadow = read.usedShadow;
    res.onChipHit = read.foundInTreetop;
    res.pathAccesses = 1;
    if (read.usedShadow) {
        ++_stats.shadowForwards;
        SB_ASSERT(_geo.leafLevel >= read.forwardLevel, "level");
        traceInstant(obs::kTrackPipeline, "shadow_forward",
                     read.forwardAt);
    }

    ++_accessCounter;
    _policy->onRequestClassified(false);
    res.completeAt = maybeEvict(read.finish);
    res.completeAt = applyBackpressure(res.completeAt);
    return res;
}

void
TinyOram::applyWrite(StashEntry &e,
                     const std::vector<std::uint64_t> *writeData)
{
    ++e.version;
    if (!_cfg.payloadEnabled)
        return;
    if (writeData)
        e.payload = *writeData;
    else
        patternPayloadInto(e.addr, e.version, e.payload);
}

AccessResult
TinyOram::access(Addr addr, Op op, Cycles issueTime,
                 const std::vector<std::uint64_t> *writeData)
{
    SB_ASSERT(addr < _cfg.dataBlocks, "address %llu beyond data space",
              static_cast<unsigned long long>(addr));
    ++_stats.requests;
    _policy->onLlcMiss(addr);
    // The only place hotness counters move (the hotnessOf contract):
    // the stash's cached displacement keys are now stale.
    _stash.invalidateHotness();

    // Step-1: probe the stash.
    StashEntry *hit = _stash.find(addr);
    const bool shadowReadHit =
        hit && hit->isShadow() && op == Op::Read &&
        _cfg.serveFromShadow;
    if (hit && (hit->type == BlockType::Real || shadowReadHit)) {
        AccessResult res;
        res.start = issueTime;
        res.forwardAt = issueTime + _cfg.stashHitLatency;
        res.completeAt = issueTime + _cfg.stashHitLatency;
        res.stashHit = true;
        res.onChipHit = true;
        res.usedShadow = hit->isShadow();
        res.forwardLevel = _geo.leafLevel + 1;
        ++_stats.stashHits;
        ++_stats.onChipHits;
        if (hit->isShadow())
            ++_stats.shadowStashHits;
        traceInstant(obs::kTrackPipeline, "stash_hit", issueTime);
        if (op == Op::Write)
            applyWrite(*hit, writeData);
        return res;
    }
    // A write hitting only a shadow copy must fetch the real block:
    // fall through to a full access (DESIGN.md, deviations).

    Cycles t = std::max(issueTime, _freeAt);
    AccessResult total;
    total.start = t;

    obs::TraceSession *ts = _obs ? _obs->trace() : nullptr;
    if (ts)
        ts->begin(obs::kTrackPipeline, "access", t);

    // Step-2: position-map lookup; recursive levels may require
    // preceding ORAM accesses of their own (Freecursive [14]).
    std::vector<Addr> chain = _recursion.resolve(addr, _plb);
    for (Addr pmAddr : chain) {
        StashEntry *pmHit = _stash.find(pmAddr);
        if (pmHit && pmHit->type == BlockType::Real)
            continue;  // Already on chip.
        ++_stats.posMapAccesses;
        const Cycles pmStart = t;
        AccessResult r = accessOne(pmAddr, t);
        t = r.completeAt;
        total.pathAccesses += r.pathAccesses;
        if (ts)
            ts->complete(obs::kTrackPipeline, "posmap_access",
                         pmStart, t - pmStart);
    }

    AccessResult dataAccess = accessOne(addr, t, op, writeData);
    total.forwardAt = dataAccess.forwardAt;
    total.completeAt = dataAccess.completeAt;
    total.usedShadow = dataAccess.usedShadow;
    total.onChipHit = dataAccess.onChipHit;
    total.forwardLevel = dataAccess.forwardLevel;
    total.pathAccesses += dataAccess.pathAccesses;
    if (total.onChipHit)
        ++_stats.onChipHits;

    if (ts)
        ts->end(obs::kTrackPipeline, total.completeAt);

    _freeAt = total.completeAt;
    return total;
}

Cycles
TinyOram::dummyAccess(Cycles issueTime)
{
    ++_stats.dummyAccesses;
    Cycles t = std::max(issueTime, _freeAt);
    const LeafLabel leaf = _dummyRng.below(_geo.numLeaves);
    PathReadOutcome read = pathRead(leaf, ReadMode::Dummy,
                                    kInvalidAddr, t);
    if (obs::TraceSession *trace = _obs ? _obs->trace() : nullptr)
        trace->complete(obs::kTrackPipeline, "dummy_access", t,
                        read.finish - t);
    ++_accessCounter;
    _policy->onRequestClassified(true);
    _freeAt = applyBackpressure(maybeEvict(read.finish));
    return _freeAt;
}

std::vector<std::uint64_t>
TinyOram::peekPayload(Addr addr) const
{
    SB_ASSERT(_cfg.payloadEnabled, "payload mode disabled");
    const StashEntry *entry = _stash.find(addr);
    if (entry)
        return entry->payload;
    const LeafLabel leaf = _posMap.lookup(addr);
    for (unsigned level = 0; level <= _geo.leafLevel; ++level) {
        const BucketIndex b = _tree.bucketOnPath(leaf, level);
        for (unsigned s = 0; s < _cfg.slotsPerBucket; ++s) {
            const Slot &slot = _tree.slot(b, s);
            if (slot.isReal() && slot.addr == addr) {
                std::vector<std::uint64_t> out;
                _codec.decryptInto(
                    _tree.cipherView(_tree.slotIndex(b, s)), out);
                return out;
            }
        }
    }
    SB_PANIC("block %llu not found anywhere",
             static_cast<unsigned long long>(addr));
}

namespace {

/** Every OramStats counter, in snapshot order. */
constexpr std::uint64_t OramStats::*kStatFields[] = {
    &OramStats::requests,        &OramStats::stashHits,
    &OramStats::shadowStashHits, &OramStats::onChipHits,
    &OramStats::shadowForwards,  &OramStats::pathReads,
    &OramStats::pathWrites,      &OramStats::dummyAccesses,
    &OramStats::posMapAccesses,  &OramStats::shadowsWritten,
    &OramStats::evictions,       &OramStats::levelsAdvanced,
    &OramStats::faultsInjected,  &OramStats::faultsDetected,
    &OramStats::faultsRecovered, &OramStats::faultsUnrecoverable,
    &OramStats::slotsQuarantined, &OramStats::quarantineEvacuations,
    &OramStats::degradedEntries, &OramStats::degradedTicks,
    &OramStats::emergencyEvictions,
};

void
saveStashEntry(ckpt::Serializer &out, const StashEntry &e)
{
    out.u64(e.addr);
    out.u64(e.leaf);
    out.u32(e.version);
    out.u8(static_cast<std::uint8_t>(e.type));
    out.u64(e.seq);
    out.vecU64(e.payload);
}

StashEntry
loadStashEntry(ckpt::Deserializer &in)
{
    StashEntry e;
    e.addr = in.u64();
    e.leaf = in.u64();
    e.version = in.u32();
    e.type = static_cast<BlockType>(in.u8());
    e.seq = in.u64();
    e.payload = in.vecU64();
    return e;
}

} // namespace

void
TinyOram::saveState(ckpt::Serializer &out) const
{
    out.u64(_freeAt);
    out.u64(_lastEvictionDone);
    out.u64(_accessCounter);
    out.u64(_evictionCounter);
    out.u64(_codec.noncesIssued());

    std::uint64_t rng[4];
    _remapRng.stateWords(rng);
    for (std::uint64_t w : rng)
        out.u64(w);
    _dummyRng.stateWords(rng);
    for (std::uint64_t w : rng)
        out.u64(w);

    for (auto field : kStatFields)
        out.u64(_stats.*field);

    out.vecU8(_realLevel);

    out.u64(_evictShadows.size());
    for (const StashEntry &e : _evictShadows)
        saveStashEntry(out, e);

    _tree.saveState(out);
    _stash.saveState(out);
    _posMap.saveState(out);
    _plb.saveState(out);

    out.u8(_faults ? 1 : 0);
    if (_faults)
        _faults->saveState(out);

    _health.saveState(out);

    out.u64(_spare.size());
    for (const auto &[slotIdx, payload] : _spare) {
        out.u64(slotIdx);
        out.vecU64(payload);
    }
}

void
TinyOram::loadState(ckpt::Deserializer &in)
{
    _freeAt = in.u64();
    _lastEvictionDone = in.u64();
    _accessCounter = in.u64();
    _evictionCounter = in.u64();
    _codec.restoreNonceCounter(in.u64());

    std::uint64_t rng[4];
    for (std::uint64_t &w : rng)
        w = in.u64();
    _remapRng.setStateWords(rng);
    for (std::uint64_t &w : rng)
        w = in.u64();
    _dummyRng.setStateWords(rng);

    for (auto field : kStatFields)
        _stats.*field = in.u64();

    std::vector<std::uint8_t> realLevel = in.vecU8();
    if (realLevel.size() != _realLevel.size())
        throw CkptMismatchError("realLevel table size mismatch");
    _realLevel = std::move(realLevel);

    _evictShadows.clear();
    const std::uint64_t nShadows = in.u64();
    for (std::uint64_t i = 0; i < nShadows; ++i)
        _evictShadows.push_back(loadStashEntry(in));

    _tree.loadState(in);
    _stash.loadState(in);
    _posMap.loadState(in);
    _plb.loadState(in);

    const bool hadFaults = in.u8() != 0;
    if (hadFaults != (_faults != nullptr))
        throw CkptMismatchError(
            "fault-injector presence differs from configuration");
    if (_faults)
        _faults->loadState(in);

    _health.loadState(in);

    _spare.clear();
    const std::uint64_t nSpare = in.u64();
    const std::uint64_t numSlots =
        _tree.numBuckets() * _cfg.slotsPerBucket;
    if (nSpare > numSlots)
        throw CkptMismatchError("spare-store table larger than tree");
    const std::uint64_t words = _cfg.blockBytes / 8;
    for (std::uint64_t i = 0; i < nSpare; ++i) {
        const std::uint64_t slotIdx = in.u64();
        if (slotIdx >= numSlots)
            throw CkptMismatchError(
                "spare-store slot index out of range");
        std::vector<std::uint64_t> payload = in.vecU64();
        if (payload.size() != words)
            throw CkptMismatchError(
                "spare-store payload size mismatch");
        _spare.emplace(slotIdx, std::move(payload));
    }
}

} // namespace sboram
