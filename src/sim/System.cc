#include "System.hh"

#include <algorithm>
#include <memory>

#include "baseline/InsecureMemory.hh"
#include "common/Errors.hh"
#include "common/Logging.hh"
#include "mem/EnergyModel.hh"
#include "obs/FlightRecorder.hh"
#include "security/InvariantChecker.hh"
#include "sim/RunHarness.hh"
#include "workload/SpecProfiles.hh"

namespace sboram {

namespace {

/** Memory port wrapping the insecure DRAM system. */
class InsecurePort : public MemoryPort
{
  public:
    explicit InsecurePort(InsecureMemory &mem) : _mem(mem) {}

    MemoryReply
    request(Addr addr, Op op, Cycles issueTime) override
    {
        InsecureMemory::Result r = _mem.access(addr, op, issueTime);
        _busy += r.completeAt -
                 std::max(issueTime, _lastComplete);
        _lastComplete = r.completeAt;
        return MemoryReply{r.forwardAt};
    }

    double busyTime() const { return static_cast<double>(_busy); }

    void
    saveState(ckpt::Serializer &out) const
    {
        out.u64(_busy);
        out.u64(_lastComplete);
        out.u64(_mem.freeAt());
    }

    void
    loadState(ckpt::Deserializer &in)
    {
        _busy = in.u64();
        _lastComplete = in.u64();
        _mem.restoreFreeAt(in.u64());
    }

  private:
    InsecureMemory &_mem;
    Cycles _busy = 0;
    Cycles _lastComplete = 0;
};

/**
 * Memory port wrapping the ORAM controller, including the
 * constant-rate timing protection of Fletcher et al. [16]: real or
 * dummy ORAM requests launch on a fixed-interval slot grid; stash
 * hits consume no slot.
 */
class OramPort : public MemoryPort
{
  public:
    OramPort(TinyOram &oram, bool timingProtection, Cycles interval,
             bool virtualDummies, std::uint64_t watchdogInterval)
        : _oram(oram), _tp(timingProtection), _interval(interval),
          _virtualDummies(virtualDummies),
          _watchdogInterval(watchdogInterval)
    {
        SB_ASSERT(!_tp || _interval > 0, "TP needs an interval");
        _idleThreshold = interval > 0 ? interval : 1;
    }

    MemoryReply
    request(Addr addr, Op op, Cycles issueTime) override
    {
        if (_watchdogInterval &&
            ++_sinceWatchdog >= _watchdogInterval) {
            _sinceWatchdog = 0;
            enforceInvariants(_oram, _oram.stats().requests);
        }

        if (_oram.wouldHitStash(addr, op)) {
            AccessResult r = _oram.access(addr, op, issueTime);
            return MemoryReply{r.forwardAt};
        }

        Cycles start = issueTime;
        if (_tp) {
            // Fire dummy requests in every elapsed slot, then place
            // this request on the next slot boundary.
            while (_nextSlot < issueTime) {
                fireDummy(_nextSlot);
                _nextSlot += _interval;
            }
            start = _nextSlot;
            _nextSlot += _interval;
        } else if (_virtualDummies) {
            // No timing protection: let the dynamic-partitioning DRI
            // counter see long idle gaps as if they were dummies.
            if (_lastComplete != 0 &&
                issueTime > _lastComplete + _idleThreshold) {
                const Cycles gap = issueTime - _lastComplete;
                const std::uint64_t n =
                    std::min<std::uint64_t>(gap / _idleThreshold, 4);
                for (std::uint64_t i = 0; i < n; ++i)
                    _oram.policy().onRequestClassified(true);
            }
        }

        AccessResult r = _oram.access(addr, op, start);
        _dataBusy += r.completeAt - r.start;
        _lastComplete = r.completeAt;
        return MemoryReply{r.forwardAt};
    }

    double dataBusyTime() const { return static_cast<double>(_dataBusy); }
    std::uint64_t dummiesFired() const { return _dummies; }

    void
    saveState(ckpt::Serializer &out) const
    {
        out.u64(_sinceWatchdog);
        out.u64(_nextSlot);
        out.u64(_lastComplete);
        out.u64(_dataBusy);
        out.u64(_dummies);
    }

    void
    loadState(ckpt::Deserializer &in)
    {
        _sinceWatchdog = in.u64();
        _nextSlot = in.u64();
        _lastComplete = in.u64();
        _dataBusy = in.u64();
        _dummies = in.u64();
    }

  private:
    void
    fireDummy(Cycles slot)
    {
        _oram.dummyAccess(slot);
        ++_dummies;
    }

    TinyOram &_oram;
    bool _tp;
    Cycles _interval;
    bool _virtualDummies;
    std::uint64_t _watchdogInterval;
    std::uint64_t _sinceWatchdog = 0;
    Cycles _idleThreshold;
    Cycles _nextSlot = 0;
    Cycles _lastComplete = 0;
    Cycles _dataBusy = 0;
    std::uint64_t _dummies = 0;
};

std::vector<std::vector<LlcMissRecord>>
perCoreTraces(const std::vector<LlcMissRecord> &trace, unsigned cores,
              std::uint64_t dataBlocks)
{
    // The paper duplicates the benchmark, one task per core; each
    // task owns a distinct slice of the (oblivious) address space.
    std::vector<std::vector<LlcMissRecord>> result(cores, trace);
    const std::uint64_t stride = dataBlocks / cores;
    for (unsigned c = 0; c < cores; ++c) {
        for (LlcMissRecord &rec : result[c])
            rec.addr = (rec.addr % stride) + stride * c;
    }
    return result;
}

/**
 * One RunMetrics scalar, in .done-marker order: exactly one of u64,
 * f64 and u32 is set.  @c from names the OramStats counter a u64
 * field copies at the end of an ORAM run.
 */
struct RunMetricField
{
    std::uint64_t RunMetrics::*u64 = nullptr;
    double RunMetrics::*f64 = nullptr;
    unsigned RunMetrics::*u32 = nullptr;
    std::uint64_t OramStats::*from = nullptr;
};

using M = RunMetrics;
using S = OramStats;

/** Every RunMetrics scalar; missRetireTimes travels after them. */
constexpr RunMetricField kRunMetricFields[] = {
    {.u64 = &M::execTime},
    {.f64 = &M::dataAccessTime},
    {.f64 = &M::driTime},
    {.u64 = &M::requests, .from = &S::requests},
    {.u64 = &M::dummyRequests, .from = &S::dummyAccesses},
    {.u64 = &M::stashHits, .from = &S::stashHits},
    {.u64 = &M::shadowStashHits, .from = &S::shadowStashHits},
    {.u64 = &M::shadowForwards, .from = &S::shadowForwards},
    {.u64 = &M::pathReads, .from = &S::pathReads},
    {.u64 = &M::shadowsWritten, .from = &S::shadowsWritten},
    {.f64 = &M::onChipHitRate},
    {.f64 = &M::energy},
    {.u64 = &M::stashPeakReal},
    {.u64 = &M::stashOverflows},
    {.u32 = &M::finalPartitionLevel},
    {.u64 = &M::faultsInjected, .from = &S::faultsInjected},
    {.u64 = &M::faultsDetected, .from = &S::faultsDetected},
    {.u64 = &M::faultsRecovered, .from = &S::faultsRecovered},
    {.u64 = &M::faultsUnrecoverable, .from = &S::faultsUnrecoverable},
    {.u64 = &M::slotsQuarantined, .from = &S::slotsQuarantined},
    {.u64 = &M::quarantineEvacuations, .from = &S::quarantineEvacuations},
    {.u64 = &M::degradedEntries, .from = &S::degradedEntries},
    {.u64 = &M::degradedTicks, .from = &S::degradedTicks},
    {.u64 = &M::emergencyEvictions, .from = &S::emergencyEvictions},
    {.u64 = &M::rollbacks},
    {.u64 = &M::replayedAccesses},
};

} // namespace

std::vector<LlcMissRecord>
makeTrace(const std::string &workload, std::uint64_t misses,
          std::uint64_t seed)
{
    WorkloadGenerator gen(specProfile(workload), seed);
    return gen.generate(misses);
}

RunMetrics
runSystem(const SystemConfig &cfg,
          const std::vector<LlcMissRecord> &rawTrace)
{
    return runSystem(cfg, rawTrace, nullptr);
}

RunMetrics
runSystem(const SystemConfig &cfg,
          const std::vector<LlcMissRecord> &rawTrace,
          ckpt::CheckpointSession *session)
{
    // Fold workload addresses into the configured data space (the
    // profiles target the default 2^20-block ORAM; smaller studies
    // reuse them scaled down).
    std::vector<LlcMissRecord> trace = rawTrace;
    for (LlcMissRecord &rec : trace)
        rec.addr %= cfg.oram.dataBlocks;

    RunMetrics m;
    EnergyModel energy(DramEnergy{}, cfg.dramGeometry.channels);
    RunHarness harness(
        cfg.obs,
        trace.size() * (cfg.cpu == CpuKind::OutOfOrder ? cfg.cores : 1),
        session, cfg.checkpointInterval, cfg.interruptAfterAccesses,
        "run", "accesses");
    obs::RunObserver *obsPtr = harness.observer();

    // The step hook fires after every completed memory request.  With
    // no observer, session or interrupt seam it stays empty and the
    // CPU models skip it entirely.
    CpuCursor cursor;
    CpuStepHook hook;
    if (obsPtr != nullptr || session != nullptr ||
        cfg.interruptAfterAccesses != 0)
        hook = [&harness, obsPtr](const CpuCursor &cur) {
            if (obsPtr != nullptr)
                obsPtr->onAccessBoundary(cur.accessesDone,
                                         cur.partial.finishTime,
                                         cur.lastIssue, cur.lastForward);
            harness.atStep(cur.accessesDone, cur.partial.finishTime);
        };

    struct RecordingPort : MemoryPort
    {
        MemoryPort *inner = nullptr;
        std::vector<Cycles> *out = nullptr;

        MemoryReply
        request(Addr addr, Op op, Cycles issueTime) override
        {
            MemoryReply r = inner->request(addr, op, issueTime);
            out->push_back(r.forwardAt);
            return r;
        }
    };
    RecordingPort recorder;
    auto runCpu = [&](MemoryPort &inner) -> CpuRunResult {
        MemoryPort *port = &inner;
        if (cfg.recordPerMiss) {
            recorder.inner = &inner;
            recorder.out = &m.missRetireTimes;
            port = &recorder;
        }
        if (cfg.cpu == CpuKind::InOrder) {
            InOrderCpu cpu;
            return cpu.run(trace, *port, cursor, hook);
        }
        OooCpu cpu(cfg.cores, cfg.window);
        return cpu.run(
            perCoreTraces(trace, cfg.cores, cfg.oram.dataBlocks), *port,
            cursor, hook);
    };

    // Every System snapshot holds the CPU cursor and the run-level
    // metrics, whatever the memory system behind them.
    auto saveRun = [&](ckpt::SnapshotWriter &w) {
        cursor.saveState(w.section(ckpt::kSectionCpu));
        ckpt::Serializer &met = w.section(ckpt::kSectionMetrics);
        met.u64(m.rollbacks);
        met.u64(m.replayedAccesses);
        met.vecU64(m.missRetireTimes);
    };
    // @p restoreMemory fetches its own sections before it loads any,
    // so a structurally wrong snapshot is rejected untouched.
    auto restoreRun = [&](const ckpt::SnapshotReader &r,
                          auto &&restoreMemory) {
        auto dCpu = r.section(ckpt::kSectionCpu);
        auto dMet = r.section(ckpt::kSectionMetrics);
        restoreMemory();
        cursor.loadState(dCpu);
        m.rollbacks = dMet.u64();
        m.replayedAccesses = dMet.u64();
        m.missRetireTimes = dMet.vecU64();
        return cursor.accessesDone;
    };

    if (cfg.scheme == Scheme::Insecure) {
        DramModel dram(cfg.dramTiming, cfg.dramGeometry);
        InsecureMemory mem(dram);
        InsecurePort port(mem);
        harness.wire(
            [&](ckpt::SnapshotWriter &w) {
                saveRun(w);
                port.saveState(w.section(ckpt::kSectionMem));
                dram.saveState(w.section(ckpt::kSectionDram));
            },
            [&](const ckpt::SnapshotReader &r) {
                return restoreRun(r, [&] {
                    auto dMem = r.section(ckpt::kSectionMem);
                    auto dDram = r.section(ckpt::kSectionDram);
                    port.loadState(dMem);
                    dram.loadState(dDram);
                });
            });
        harness.resume();
        CpuRunResult r = runCpu(port);
        m.execTime = r.finishTime;
        m.dataAccessTime = port.busyTime();
        m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
        m.requests = r.reads + r.writes;
        m.energy = energy.totalEnergy(dram.stats(), m.execTime);
        harness.finish(cursor.accessesDone, m.execTime);
        return m;
    }

    OramStack stack(cfg.scheme, cfg.oram, cfg.shadow, cfg.dramTiming,
                    cfg.dramGeometry);
    TinyOram &oram = stack.oram();

    // Always-on flight recorder for the recovery ladder: quarantines
    // and degraded transitions from the controller, rollbacks and
    // corruption rethrows from the tier-3 loop below.
    obs::FlightRecorder &flight = stack.flight();
    const std::string flightLabel =
        obs::flightLabel("sys", configFingerprint(cfg));

    Cycles interval = cfg.tpInterval;
    if (cfg.timingProtection && interval == 0) {
        // Auto-size: one slot per average request service time
        // (path read plus the amortised eviction read+write).
        const Cycles path = oram.estimatePathReadLatency();
        interval = path +
                   2 * path / cfg.oram.evictionRate;
    }
    if (!cfg.timingProtection && interval == 0)
        interval = oram.estimatePathReadLatency();

    OramPort port(oram, cfg.timingProtection, interval,
                  cfg.virtualDummies, cfg.watchdogInterval);

    if (obsPtr != nullptr) {
        oram.setObserver(obsPtr);
        if (cfg.obs.metrics)
            stack.registerGauges(obsPtr->registry(), [&m] {
                return static_cast<double>(m.rollbacks);
            });
    }

    // Only auto-rollback sessions pay for the pre-commit patrol
    // scrub; plain checkpointing tolerates latent corruption in a
    // snapshot because it never restores one mid-run.
    const bool autoRollback =
        session != nullptr && cfg.maxAutoRollbacks > 0;
    RunHarness::ScrubFn scrub;
    if (autoRollback)
        scrub = [&oram] { return oram.scrubStorage(); };
    harness.wire(
        [&](ckpt::SnapshotWriter &w) {
            saveRun(w);
            port.saveState(w.section(ckpt::kSectionPort));
            stack.save(w);
            flight.saveState(w.section(ckpt::kSectionReqObs));
        },
        [&](const ckpt::SnapshotReader &r) {
            return restoreRun(r, [&] {
                auto dPort = r.section(ckpt::kSectionPort);
                auto dReq = r.section(ckpt::kSectionReqObs);
                stack.restore(r);
                port.loadState(dPort);
                flight.loadState(dReq);
            });
        },
        std::move(scrub));

    // Auto-rollback's last line of defense: a fault can corrupt a
    // stored ciphertext long before the next read detects it, so a
    // cadence snapshot taken in that window captures the poison and
    // rolling back to it deterministically reproduces the identical
    // failure.  Keep the pristine access-0 state as an in-memory
    // image (captured before any resume mutates it) so the ladder can
    // escalate to a clean restart from the trace start.
    std::vector<std::uint8_t> pristineImage;
    if (autoRollback) {
        ckpt::SnapshotWriter writer;
        harness.save(writer);
        pristineImage = writer.finish(0, 0);
    }
    // Auto-rollback needs a restore point even for corruption that
    // strikes before the first cadence snapshot: commit the pristine
    // access-0 state up front.
    if (!harness.resume() && autoRollback)
        harness.commit();

    // Tier-3 of the recovery ladder: a CorruptionError that escaped
    // the in-ORAM tiers rolls the whole simulation back to the latest
    // valid snapshot generation and deterministically replays the
    // cursor — with the fault schedule shifted to its next
    // realization, since replaying the identical schedule would
    // re-corrupt the identical slot — instead of tearing the run
    // down.  Bounded attempts; exhaustion rethrows and the fatal
    // classifier reports it exactly as before.
    unsigned rollbacksUsed = 0;
    std::uint64_t lastFailedAt = std::uint64_t(-1);
    CpuRunResult r;
    for (;;) {
        try {
            r = runCpu(port);
            break;
        } catch (const CorruptionError &) {
            flight.record(cursor.partial.finishTime,
                          obs::FlightKind::Corruption,
                          cursor.accessesDone, rollbacksUsed);
            if (!autoRollback || rollbacksUsed >= cfg.maxAutoRollbacks) {
                // Fatal: hand the ring to the panic path before the
                // rethrow unwinds this frame.
                flight.publishFatal(flightLabel);
                throw;
            }
            const std::uint64_t failedAt = cursor.accessesDone;
            // Escalation within tier 3: when the replay reproduces
            // the failure at the same access, the restored snapshot
            // itself carries the failure (a latent corruption the
            // pre-commit scrub could not heal, or a serialized stuck
            // cell) — abandon the cadence snapshots and restart clean
            // from the trace start.
            std::unique_ptr<ckpt::SnapshotReader> reader;
            if (failedAt != lastFailedAt)
                reader = session->loadLatest();
            if (!reader)
                reader = std::make_unique<ckpt::SnapshotReader>(
                    pristineImage);
            // The Metrics section in the restored image predates this
            // ladder's own activity; carry the live counters across
            // the restore so rollbacks are never undercounted.
            const std::uint64_t priorRollbacks = m.rollbacks;
            const std::uint64_t priorReplayed = m.replayedAccesses;
            harness.restore(*reader);
            lastFailedAt = failedAt;
            ++rollbacksUsed;
            m.rollbacks = priorRollbacks + 1;
            m.replayedAccesses =
                priorReplayed + (failedAt - cursor.accessesDone);
            oram.shiftFaultRealization(rollbacksUsed);
            // The restore just replaced the ring with the snapshot's;
            // record the rollback after it so the event survives.
            flight.record(cursor.partial.finishTime,
                          obs::FlightKind::AutoRollback,
                          rollbacksUsed, failedAt);
        }
    }

    m.execTime = r.finishTime;
    m.dataAccessTime = port.dataBusyTime();
    m.driTime = static_cast<double>(m.execTime) - m.dataAccessTime;
    if (m.driTime < 0.0)
        m.driTime = 0.0;

    const OramStats &os = oram.stats();
    for (const RunMetricField &f : kRunMetricFields)
        if (f.from != nullptr)
            m.*f.u64 = os.*f.from;
    m.onChipHitRate = os.requests
        ? static_cast<double>(os.onChipHits) /
          static_cast<double>(os.requests)
        : 0.0;
    m.energy = energy.totalEnergy(stack.dram().stats(), m.execTime);
    m.stashPeakReal = oram.stash().stats().peakReal;
    m.stashOverflows = oram.stash().stats().overflowEvents;
    // m.rollbacks / m.replayedAccesses are maintained by the tier-3
    // loop above (and restored from the snapshot on resume).
    if (ShadowPolicy *policy = stack.shadowPolicy())
        m.finalPartitionLevel = policy->partitionLevel();
    // Empty rings stay out of the artifact: most batch points never
    // touch the recovery ladder.
    if (!flight.empty())
        obs::publishFlightDump(flightLabel,
                               flight.renderJson(flightLabel));
    harness.finish(cursor.accessesDone, m.execTime);
    return m;
}

RunMetrics
runWorkload(const SystemConfig &cfg, const std::string &workload,
            std::uint64_t misses, std::uint64_t seed)
{
    return runSystem(cfg, makeTrace(workload, misses, seed));
}

std::uint64_t
configFingerprint(const SystemConfig &cfg)
{
    ckpt::Serializer s;
    s.u8(static_cast<std::uint8_t>(cfg.scheme));

    const OramConfig &o = cfg.oram;
    s.u64(o.dataBlocks);
    s.u64(o.blockBytes);
    s.u32(o.slotsPerBucket);
    s.u32(o.evictionRate);
    s.f64(o.utilization);
    s.u32(o.stashCapacity);
    s.u8(static_cast<std::uint8_t>(o.posMapMode));
    s.u64(o.plbBytes);
    s.u64(o.onChipPosMapEntries);
    s.u32(o.treetopLevels);
    s.u8(o.xorCompression ? 1 : 0);
    s.u8(o.payloadEnabled ? 1 : 0);
    s.u8(o.serveFromShadow ? 1 : 0);
    s.u8(o.recirculateShadows ? 1 : 0);
    s.u64(o.aesLatency);
    s.u64(o.stashHitLatency);
    s.u64(o.onChipLatency);
    s.f64(o.fault.rate);
    s.u64(o.fault.seed);
    s.u8(o.fault.bitFlips ? 1 : 0);
    s.u8(o.fault.droppedWrites ? 1 : 0);
    s.u8(o.fault.stuckBits ? 1 : 0);
    s.u32(o.fault.stuckWrites);
    s.u8(static_cast<std::uint8_t>(o.fault.onUnrecoverable));
    s.u32(o.fault.burstEvery);
    s.u32(o.fault.burstLen);
    s.u32(o.fault.subtreeLevels);
    s.u64(o.fault.subtreePrefix);
    s.u32(o.health.quarantineThreshold);
    s.u32(o.health.stashHighWatermark);
    s.u32(o.health.stashLowWatermark);
    s.u64(o.seed);

    const ShadowConfig &sh = cfg.shadow;
    s.u8(static_cast<std::uint8_t>(sh.mode));
    s.u32(sh.staticLevel);
    s.u32(sh.driCounterBits);
    s.u32(sh.hotCacheEntries);
    s.u32(sh.hotCacheAssoc);
    s.u8(sh.refillQueues ? 1 : 0);

    const DramTiming &t = cfg.dramTiming;
    s.u64(t.cpuPerMemClk);
    s.u64(t.tCL);
    s.u64(t.tCWL);
    s.u64(t.tRCD);
    s.u64(t.tRP);
    s.u64(t.tRAS);
    s.u64(t.tRC);
    s.u64(t.tCCD);
    s.u64(t.tBURST);
    s.u64(t.tWTR);
    s.u64(t.tRTW);
    s.u64(t.tWR);
    s.u64(t.tRRD);

    const DramGeometry &g = cfg.dramGeometry;
    s.u32(g.channels);
    s.u32(g.ranksPerChannel);
    s.u32(g.banksPerRank);
    s.u64(g.rowBytes);
    s.u64(g.blockBytes);

    s.u8(cfg.timingProtection ? 1 : 0);
    s.u64(cfg.tpInterval);
    s.u8(cfg.virtualDummies ? 1 : 0);
    s.u8(static_cast<std::uint8_t>(cfg.cpu));
    s.u32(cfg.cores);
    s.u32(cfg.window);
    s.u8(cfg.recordPerMiss ? 1 : 0);
    s.u64(cfg.watchdogInterval);
    // maxAutoRollbacks is semantic: a rollback shifts the fault
    // realization, so runs with different budgets can end with
    // different counters.
    s.u32(cfg.maxAutoRollbacks);
    // checkpointInterval, interruptAfterAccesses and obs are
    // intentionally omitted: they change when snapshots happen and
    // what gets recorded about a run, never the result.

    return ckpt::fnv1a(s.buffer().data(), s.buffer().size());
}

void
saveRunMetrics(ckpt::Serializer &out, const RunMetrics &m)
{
    for (const RunMetricField &f : kRunMetricFields) {
        if (f.u64 != nullptr)
            out.u64(m.*f.u64);
        else if (f.f64 != nullptr)
            out.f64(m.*f.f64);
        else
            out.u32(m.*f.u32);
    }
    out.vecU64(m.missRetireTimes);
}

RunMetrics
loadRunMetrics(ckpt::Deserializer &in)
{
    RunMetrics m;
    for (const RunMetricField &f : kRunMetricFields) {
        if (f.u64 != nullptr)
            m.*f.u64 = in.u64();
        else if (f.f64 != nullptr)
            m.*f.f64 = in.f64();
        else
            m.*f.u32 = in.u32();
    }
    m.missRetireTimes = in.vecU64();
    return m;
}

} // namespace sboram
