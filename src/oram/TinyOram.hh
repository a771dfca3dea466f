/**
 * @file
 * The Tiny ORAM controller (paper Section II-C), with the Shadow
 * Block extension points.
 *
 * Implements the six-step access protocol: stash probe, position-map
 * lookup (recursive with PLB), path read with early forwarding of the
 * intended block, eviction-rate-A scheduling, reverse-lexicographic
 * eviction path selection, and the greedy path write — plus the
 * modified path read/write of Algorithms 1 and 2 (shadow blocks are
 * inserted into the stash on reads; dummy slots may be filled with
 * duplicated data on writes).
 *
 * Timing is produced by the DDR3 model: a path read yields a
 * completion time per slot, and the forward time of a request is the
 * completion of the *earliest* slot holding the intended address —
 * the quantity shadow blocks improve.
 */

#ifndef SBORAM_ORAM_TINYORAM_HH
#define SBORAM_ORAM_TINYORAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "Block.hh"
#include "DuplicationPolicy.hh"
#include "OramConfig.hh"
#include "OramTree.hh"
#include "Plb.hh"
#include "PositionMap.hh"
#include "RecursivePosMap.hh"
#include "Stash.hh"
#include "TraceSink.hh"
#include "common/Rng.hh"
#include "common/Types.hh"
#include "common/VectorPool.hh"
#include "crypto/Otp.hh"
#include "mem/AddressMap.hh"
#include "mem/DramModel.hh"

namespace sboram {

namespace obs {
class FlightRecorder;
class RunObserver;
}

/** Timing and provenance of one served LLC request. */
struct AccessResult
{
    Cycles start = 0;      ///< Controller began serving.
    Cycles forwardAt = 0;  ///< Intended data forwarded to the LLC.
    Cycles completeAt = 0; ///< Controller free again.
    bool stashHit = false; ///< Served without any path access.
    bool onChipHit = false;///< Stash or treetop supplied the data.
    bool usedShadow = false; ///< A shadow copy supplied the data.
    unsigned forwardLevel = 0; ///< Tree level data came from.
    unsigned pathAccesses = 0; ///< Path reads performed (incl. posmap).
};

/** Controller-level statistics. */
struct OramStats
{
    std::uint64_t requests = 0;       ///< Real LLC requests served.
    std::uint64_t stashHits = 0;
    std::uint64_t shadowStashHits = 0;
    std::uint64_t onChipHits = 0;     ///< Fig. 16 numerator.
    std::uint64_t shadowForwards = 0; ///< Path reads advanced by shadow.
    std::uint64_t pathReads = 0;
    std::uint64_t pathWrites = 0;
    std::uint64_t dummyAccesses = 0;
    std::uint64_t posMapAccesses = 0;
    std::uint64_t shadowsWritten = 0;
    std::uint64_t evictions = 0;
    /** Sum of (levels advanced) over shadow-forwarded reads. */
    std::uint64_t levelsAdvanced = 0;
    /** Fault-injection accounting (payload mode, FaultConfig). */
    std::uint64_t faultsInjected = 0;      ///< Corruptions planted.
    std::uint64_t faultsDetected = 0;      ///< Tag failures on read.
    std::uint64_t faultsRecovered = 0;     ///< Healed via duplication.
    std::uint64_t faultsUnrecoverable = 0; ///< No intact copy left.
    /** Recovery-ladder accounting (HealthConfig; all zero when the
     *  ladder is disabled). */
    std::uint64_t slotsQuarantined = 0;    ///< Tier-1 quarantines.
    std::uint64_t quarantineEvacuations = 0; ///< Payloads parked in spare.
    std::uint64_t degradedEntries = 0;     ///< Tier-2 mode entries.
    std::uint64_t degradedTicks = 0;       ///< Accesses spent degraded.
    std::uint64_t emergencyEvictions = 0;  ///< Backpressure sweeps.
};

class TinyOram
{
  public:
    /**
     * @param cfg ORAM configuration (geometry is derived from it).
     * @param dram DDR3 model; not owned.
     * @param policy Duplication policy; pass nullptr for baseline.
     */
    TinyOram(const OramConfig &cfg, DramModel &dram,
             std::unique_ptr<DuplicationPolicy> policy = nullptr);

    /**
     * Serve one LLC miss.
     *
     * @param addr Program block address (must be < dataBlocks).
     * @param op Read or write.
     * @param issueTime When the request reached the controller.
     * @param writeData Optional payload for writes (payload mode).
     */
    AccessResult access(Addr addr, Op op, Cycles issueTime,
                        const std::vector<std::uint64_t> *writeData =
                            nullptr);

    /**
     * Perform a dummy ORAM request (timing protection): a path read
     * of a uniformly random path whose contents are discarded.
     * Returns the completion time.
     */
    Cycles dummyAccess(Cycles issueTime);

    /** Read the current payload of @p addr (testing; payload mode). */
    SB_SECRET std::vector<std::uint64_t> peekPayload(Addr addr) const;

    /**
     * True when access(addr, op, ...) would be served from the stash
     * without launching any ORAM request (used by the timing
     * protection front-end: stash hits consume no request slot).
     */
    bool
    wouldHitStash(Addr addr, Op op) const
    {
        const StashEntry *e = _stash.find(addr);
        return e && (e->type == BlockType::Real ||
                     (e->isShadow() && op == Op::Read &&
                      _cfg.serveFromShadow));
    }

    /** Attach an observer of the externally visible trace. */
    void setTraceSink(TraceSink *sink) { _traceSink = sink; }

    /**
     * Attach the run's observability hub (trace spans + instant
     * events).  Null (the default) disables every hook: each site is
     * a single branch on this pointer, like _traceSink.  Also hooks
     * the fault injector so planted corruptions show up as trace
     * instants, and the flight recorder (attach it first) so its
     * control events do.
     */
    void setObserver(obs::RunObserver *obs);

    /**
     * Attach a flight recorder for recovery-ladder events (slot
     * quarantines, degraded-mode transitions).  Null (the default)
     * disables the hooks; like the trace sink, the recorder only ever
     * observes control decisions — never addresses or path positions.
     */
    void setFlightRecorder(obs::FlightRecorder *rec)
    {
        _flight = rec;
    }

    /** Earliest time the controller can begin a new request. */
    Cycles freeAt() const { return _freeAt; }

    const OramStats &stats() const { return _stats; }
    /** The fault injector, or nullptr when injection is disabled. */
    const FaultInjector *faultInjector() const { return _faults.get(); }
    /** Recovery-ladder state (quarantine table, degraded latch). */
    const RecoveryManager &health() const { return _health; }

    /**
     * Service-layer entry into the recovery ladder: admission-queue
     * watermarks latch/release duplication suppression (but never the
     * tier-2 eviction sweeps — those would add trace events).
     * Returns +1 on latch, -1 on release, 0 when unchanged.
     */
    int noteServicePressure(bool active)
    {
        return _health.noteServicePressure(active);
    }

    /**
     * Tier-3 hook: after sim/System rolls the simulation back to a
     * snapshot, replaying the same cursor against the same fault
     * schedule would re-corrupt the same slot and loop forever.
     * Shift the injector to its next deterministic realization.  The
     * generation floor keeps repeated rollbacks to the same snapshot
     * from re-drawing an already-failed schedule (the restore rewinds
     * the injector's serialized generation counter).
     */
    void shiftFaultRealization(std::uint32_t minGeneration = 0);

    /**
     * Patrol scrub over the whole stored tree (payload mode only):
     * verify every valid slot's integrity tag, reclaim corrupt shadow
     * copies, and heal corrupt real blocks from a same-version shadow
     * where one survives.  Returns true when every real block
     * verified (possibly after healing) — i.e. a snapshot taken now
     * carries no latent corruption.  An unhealable corrupt real slot
     * is left untouched (the next path read does the full
     * unrecoverable accounting) and makes the scrub report false so
     * the caller can skip committing a poisoned snapshot.
     */
    bool scrubStorage();

    const Stash &stash() const { return _stash; }
    const OramTree &tree() const { return _tree; }
    const PositionMap &posMap() const { return _posMap; }
    const Plb &plb() const { return _plb; }
    const OramGeometry &geometry() const { return _geo; }
    const OramConfig &config() const { return _cfg; }
    DuplicationPolicy &policy() { return *_policy; }
    DramModel &dram() { return _dram; }

    /** Expected DRAM latency of one full path read from an idle
     *  channel state (used to size timing-protection rates). */
    Cycles estimatePathReadLatency();

    /** Number of tree levels served on-chip by the treetop cache. */
    unsigned treetopLevels() const { return _cfg.treetopLevels; }

    /**
     * Tree level of an address's real copy, or 0xff when it lives in
     * the stash (exposed for the invariant checker).
     */
    std::uint8_t
    realLevelOf(Addr addr) const
    {
        return _realLevel[addr];
    }

    /**
     * Checkpoint the whole controller (tree, stash, position map,
     * PLB, RNG/nonce state, counters, eviction buffers, fault-
     * injector cursor) at an access boundary.  The duplication
     * policy's own state is checkpointed separately by
     * sim/OramStack, which knows its concrete type.
     */
    void saveState(ckpt::Serializer &out) const;
    /** Restore a controller built from the identical OramConfig. */
    void loadState(ckpt::Deserializer &in);

  private:
    struct PathReadOutcome
    {
        Cycles finish = 0;
        Cycles forwardAt = kNoCycles;
        unsigned forwardLevel = 0;
        bool usedShadow = false;
        bool foundInTreetop = false;
    };

    /**
     * The three externally indistinguishable kinds of path read.
     *
     * Request: RAW read-only access — consume the intended block and
     * all of its shadow copies, opportunistically copy other shadow
     * blocks into the stash, leave all other real blocks in place.
     * Dummy: read and discard everything (timing protection).
     * Evict: Step-5 — move every block on the path into the stash.
     */
    enum class ReadMode { Request, Dummy, Evict };

    /** What a path read does with one valid slot's block. */
    enum class Take { Leave, Copy, Consume };
    /** The take rule of a @p mode read for @p wantAddr: an eviction
     *  consumes every block, a Request consumes the intended block
     *  and copies every shadow, a Dummy takes nothing. */
    static Take takeOf(const Slot &slot, ReadMode mode, Addr wantAddr);

    SB_HOT PathReadOutcome pathRead(LeafLabel leaf, ReadMode mode,
                                    Addr wantAddr, Cycles startTime);
    /** Tag verdicts of every slot this path read will decrypt, in
     *  one batched codec call (fills _verdicts). */
    SB_HOT void verifyTakenSlots(ReadMode mode, Addr wantAddr);
    /** Move (or, for a Request's shadow, copy) one read slot's block
     *  into the stash or the eviction buffer. */
    SB_HOT void takeSlot(Slot &slot, BucketIndex b, unsigned s,
                         unsigned level, LeafLabel leaf, ReadMode mode,
                         bool consume, Cycles ready);
    /** A path-read slot failed its tag: reclaim a shadow slot, or
     *  heal (or write off) a real block's @p payload. */
    SB_HOT void healCorruptRead(Slot &slot, std::uint64_t slotIdx,
                                BucketIndex b, unsigned level,
                                LeafLabel leaf, Cycles ready,
                                std::vector<std::uint64_t> &payload);

    /**
     * Greedy path write with duplication (Algorithm 1), in phases:
     * offer shadows, place greedily, fill dummies with shadows,
     * encrypt, return unplaced shadows to the stash.
     */
    SB_HOT Cycles pathWrite(LeafLabel leaf, Cycles startTime);
    SB_HOT void offerShadows(LeafLabel leaf);
    SB_HOT void placeGreedy(LeafLabel leaf);
    SB_HOT void fillShadows();
    SB_HOT void encryptPending();
    SB_HOT void returnUnplacedShadows();
    /** Dense _placedBufs slot of @p addr for this path write. */
    std::uint32_t placedBufIdx(Addr addr);

    /** Run Step-5/6 eviction if the access counter says so. */
    Cycles maybeEvict(Cycles time);

    /**
     * Tier-2 stash backpressure, run after every access's eviction
     * slot: update the degraded-mode latch from real-stash occupancy
     * and, while degraded, run one emergency background-eviction
     * sweep.  Trace-neutral by construction — the latch depends only
     * on occupancy, which a clean run under the same config follows
     * identically.
     */
    Cycles applyBackpressure(Cycles time);

    /** One request-serving ORAM access for @p addr. */
    AccessResult accessOne(Addr addr, Cycles startTime,
                           Op op = Op::Read,
                           const std::vector<std::uint64_t>
                               *writeData = nullptr);
    /** Bump @p e's version and store the written payload. */
    void applyWrite(StashEntry &e,
                    const std::vector<std::uint64_t> *writeData);

    LeafLabel randomLeaf() { return _remapRng.below(_geo.numLeaves); }

    /** Reverse-lexicographic eviction leaf sequence. */
    LeafLabel nextEvictionLeaf();

    /** Plant this path access's scheduled fault, if any. */
    void maybeInjectFaults(LeafLabel leaf);

    /**
     * Self-healing (the duplication mechanism as a reliability win):
     * fill @p out with the payload of @p slot's address from a
     * same-version shadow copy — stash, eviction path buffer, or a
     * shallower tree slot on this path (InvariantChecker invariants
     * 3–4 guarantee those are the only places one can live).
     */
    bool recoverRealPayload(const Slot &slot, unsigned level,
                            LeafLabel leaf,
                            std::vector<std::uint64_t> &out);

    /**
     * All copies of @p slot's block are gone.  Panic, throw
     * CorruptionError, or zero-fill and count, per
     * FaultConfig::onUnrecoverable.
     */
    void handleUnrecoverable(const Slot &slot, BucketIndex bucket,
                             unsigned level,
                             std::vector<std::uint64_t> &payload);
    /**
     * Count a detected tag failure of @p slot, run the tier-1
     * quarantine bookkeeping, and reclaim the slot if it holds a
     * shadow.  Returns true when the slot just got quarantined.
     */
    bool recordCorruptSlot(Slot &slot, std::uint64_t slotIdx, Cycles at);
    /** Park @p plain on chip for quarantined @p slotIdx. */
    void parkInSpare(std::uint64_t slotIdx,
                     const std::vector<std::uint64_t> &plain);
    /** After a rewrite of @p slotIdx: true when a stuck cell
     *  re-corrupted it. */
    bool reapplyStuckCell(std::uint64_t slotIdx);

    /** Emit a trace instant when a trace session is attached. */
    void traceInstant(unsigned track, const char *name, Cycles ts) const;

    void initializeTree();
    /** Fill @p out with @p addr's initial/written test pattern. */
    void patternPayloadInto(Addr addr, std::uint32_t version,
                            std::vector<std::uint64_t> &out) const;

    OramConfig _cfg;
    OramGeometry _geo;
    OramTree _tree;
    Stash _stash;
    PositionMap _posMap;
    RecursivePosMap _recursion;
    Plb _plb;
    DramModel &_dram;
    AddressMap _addressMap;
    OtpCodec _codec;
    std::unique_ptr<DuplicationPolicy> _policy;
    /** Deterministic memory-fault source (null when rate is 0). */
    std::unique_ptr<FaultInjector> _faults;
    /** Tiers 1–2 of the recovery ladder (quarantine, backpressure). */
    RecoveryManager _health;
    /**
     * Tier-1 spare store: plaintext payloads of blocks whose assigned
     * slot is quarantined, keyed by slot index.  A quarantined cell
     * keeps participating in placement exactly as a healthy one — its
     * contents just live on-chip instead of in the bad ciphertext
     * stripe — so quarantine never shrinks tree capacity, never
     * perturbs stash occupancy, and therefore never perturbs the
     * external access trace (the DRAM-sparing analogue of remapping a
     * bad row to a spare).  Ordered map: snapshot serde iterates it
     * deterministically.
     */
    std::map<std::uint64_t, std::vector<std::uint64_t>> _spare;
    Rng _remapRng;
    Rng _dummyRng;

    Cycles _freeAt = 0;
    /** Completion of the most recent background eviction write. */
    Cycles _lastEvictionDone = 0;
    std::uint64_t _accessCounter = 0;  ///< For eviction rate A.
    std::uint64_t _evictionCounter = 0;
    /**
     * Tree level of each address's real copy (kInStash sentinel when
     * it is in the stash).  Maintained so shadow placements can
     * respect Rule-2 at all times and for the invariant checker.
     */
    std::vector<std::uint8_t> _realLevel;
    /**
     * Shadow copies vacuumed by the in-flight eviction read, held in
     * a path buffer until the matching path write re-places them —
     * routing them through the stash would expose them to capacity
     * displacement before they can circulate.
     */
    std::vector<StashEntry> _evictShadows;
    TraceSink *_traceSink = nullptr;
    obs::RunObserver *_obs = nullptr;
    obs::FlightRecorder *_flight = nullptr;
    /** Start time / trace track of the path access in flight, so the
     *  fault-injector callback (which has no cycle context) can
     *  timestamp its instant events. */
    Cycles _obsPathStart = 0;
    unsigned _obsPathTrack = 0;
    OramStats _stats;

    /** Recycled payload buffers (see VectorPool) — path reads pull
     *  from here instead of allocating one vector per block. */
    VectorPool _payloadPool;
    /** Reused DRAM-coordinate scratch, one coordinate per off-chip
     *  bucket (AddressMap::mapBucket), one vector per direction. */
    std::vector<DramCoord> _readCoords;
    std::vector<DramCoord> _writeCoords;
    /** Per-write scratch: which _evictShadows went back into the
     *  tree (parallel to _evictShadows). */
    std::vector<char> _evictShadowPlaced;

    /** One empty slot found by placeGreedy, to be filled (or
     *  explicitly blanked) by fillShadows. */
    struct DummySlot
    {
        BucketIndex bucket;
        unsigned slot;
        unsigned level;
    };
    /** One slot whose re-encryption is deferred to encryptPending at
     *  the end of a path write. */
    struct PendingEncrypt
    {
        std::uint64_t slotIdx;
        std::uint32_t bufIdx;  ///< Index into _placedBufs.
    };

    // Per-path-access scratch, kept across calls so the steady state
    // allocates nothing (vectors only ever grow to the path size /
    // the per-write candidate count and stay there).
    std::vector<BucketIndex> _pathBuckets;   ///< Root-first path buckets.
    std::vector<DummySlot> _dummyScratch;
    std::vector<std::uint64_t> _faultTargetScratch;
    Stash::EvictionPlan _planScratch;
    /**
     * Payloads of this path write's duplication candidates.  Indexed
     * by dense buffer slot; _placedIdx maps address -> slot+1 (0 =
     * absent) and is sized to the whole address space at
     * construction, with _placedAddrs recording which entries to
     * reset afterwards.  Replaces a per-write
     * unordered_map<Addr, vector> whose node churn was a measured
     * hot-path allocation source.
     */
    std::vector<std::uint32_t> _placedIdx;
    std::vector<Addr> _placedAddrs;
    std::vector<std::vector<std::uint64_t>> _placedBufs;
    /** High-water count of constructed _placedBufs entries — the
     *  structural mirror of _placedBufs.size(), kept separate so
     *  cache-growth decisions never read the payload-bearing
     *  vector. */
    std::size_t _placedBufsMade = 0;
    /** Slots awaiting the batched re-encryption, in the exact order
     *  per-slot encryption used to run (the nonce sequence is a
     *  determinism contract). */
    std::vector<PendingEncrypt> _pendingEnc;
    std::vector<const std::uint64_t *> _encPlains;
    std::vector<CipherRef> _encRefs;
    /**
     * The path read's batched integrity check: the slots its take
     * loop decrypts (root to leaf), their ciphertext views, and one
     * verdict each; takeSlot consumes them in order through
     * _verdictCursor.
     */
    std::vector<std::uint64_t> _verifySlots;
    std::vector<CipherView> _verifyViews;
    std::vector<std::uint8_t> _verdicts;
    std::size_t _verdictCursor = 0;
};

} // namespace sboram

#endif // SBORAM_ORAM_TINYORAM_HH
