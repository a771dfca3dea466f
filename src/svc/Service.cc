#include "svc/Service.hh"

#include <algorithm>

#include "common/Errors.hh"
#include "common/Logging.hh"
#include "crypto/Prf.hh"
#include "obs/FlightRecorder.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"
#include "obs/Trace.hh"
#include "sim/OramStack.hh"
#include "sim/RunHarness.hh"

namespace sboram {
namespace svc {

namespace {

/**
 * Deterministic PRF-jittered exponential backoff for a deadline
 * retry.  Stateless: keyed on the arrival seed and the (seq, attempt)
 * pair, so resumes and replays draw the same jitter without burning
 * generator state.
 */
Cycles
retryBackoff(const ServiceConfig &cfg, std::uint64_t seq,
             unsigned attempt)
{
    const Cycles base = std::max<Cycles>(1, cfg.retryBackoffCycles);
    const unsigned shift = std::min(attempt, 6u);
    const PrfKey key{0x7376632d72747279ULL, cfg.arrivals.seed};
    return (base << shift) + prf64(key, seq, attempt) % base;
}

/** Exemplars kept per log2 latency bin. */
constexpr std::size_t kExemplarsPerBin = 4;

/** The ServiceStats counters a snapshot carries, in section order. */
constexpr std::uint64_t ServiceStats::*kSnapshotStats[] = {
    &ServiceStats::arrivals,       &ServiceStats::admitted,
    &ServiceStats::completed,      &ServiceStats::dedupJoins,
    &ServiceStats::shadowEarlyCompletions,
    &ServiceStats::requestsShed,   &ServiceStats::shedAdmission,
    &ServiceStats::shedDeadline,   &ServiceStats::retries,
    &ServiceStats::deadlineMisses, &ServiceStats::maxQueueDepth,
    &ServiceStats::backpressureEntries,
    &ServiceStats::backpressureExits, &ServiceStats::issuedAccesses,
    &ServiceStats::stageBalanceViolations,
};

/**
 * One run of the pipeline (DESIGN.md §12): the virtual-time
 * discrete-event scheduler, its state as members and each step a
 * named method.  run() is only the loop; every iteration admits what
 * is due, then either issues the lowest-seq eligible request, expires
 * it, or advances time to the next event — and counts an idle
 * iteration toward the watchdog when none of that made progress.
 */
class Scheduler
{
  public:
    Scheduler(const ServiceConfig &cfg, OramStack &stack,
              ArrivalGenerator &gen,
              const std::vector<ArrivalRecord> *injected,
              std::vector<ControlRecord> *controlLog,
              ckpt::CheckpointSession *session);

    ServiceStats run(ServiceArtifacts &artifacts);

  private:
    // --- Steps -------------------------------------------------------
    bool admitDue();
    void issue(std::size_t pick);
    void expire(std::size_t pick);
    bool advance();
    void idle();
    void save(ckpt::SnapshotWriter &w) const;
    std::uint64_t restore(const ckpt::SnapshotReader &reader);
    ServiceStats finish(ServiceArtifacts &artifacts);

    // --- What the steps share ---------------------------------------
    void pull();
    void admit(const ArrivalRecord &arrival);
    std::size_t firstEligible() const;
    void fanOut(const Request &primary, Cycles issueAt,
                const AccessResult &res);
    void closeOpenUntil(const Request &r, Cycles t);
    void complete(const Request &r, Cycles at, bool usedShadow);
    void shed(obs::FlightKind kind, Cycles at, std::uint64_t a,
              std::uint64_t b);
    void notePressure();
    void setPressure(bool on);
    void noteSloBurn(std::int64_t burnMilli);
    void registerMetrics(obs::MetricRegistry &reg);

    obs::TimelineRecord &
    timeline(const Request &r)
    {
        return _pool.at(r.timelineSlot);
    }

    const ServiceConfig &_cfg;
    OramStack &_stack;
    TinyOram &_oram;
    ArrivalGenerator &_gen;
    const std::vector<ArrivalRecord> *_injected;  ///< Null: _gen.
    std::vector<ControlRecord> *_controlLog;
    ckpt::CheckpointSession *_session;
    const std::uint64_t _total;

    ServiceStats _stats;
    std::deque<Request> _queue;
    std::vector<Cycles> _latencies;
    Cycles _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _resolved = 0;
    bool _pressureOn = false;
    std::uint64_t _idleIters = 0;

    // One-record lookahead over the arrival source, so "is the next
    // arrival due" is a field compare instead of a generator call.
    ArrivalRecord _pending;
    bool _pendingValid = false;
    std::uint64_t _pulled = 0;  ///< Arrivals drawn from the source.

    // Request-level observability (always on; DESIGN.md §13).  The
    // pool is sized to the admission-queue capacity: an issuing
    // request is popped before any further admission can happen, so
    // live timeline records never exceed the queue bound.
    obs::TimelinePool _pool;
    obs::StageAccumulator _stageAcc;
    obs::ExemplarReservoir _exemplars;
    obs::SloMonitor _slo;
    // Recovery-ladder events (quarantines, degraded transitions) land
    // in the same ring as the scheduler's own control events.
    obs::FlightRecorder &_flight;
    const std::string _flightLabel;

    // Observability: identical artifact bytes whether or not anyone
    // is watching, like sim/System.
    RunHarness _harness;
    obs::TraceSession *_trace = nullptr;
    obs::HistogramSink *_latencyHist = nullptr;
    obs::Counter *_sloBreaches = nullptr;
    std::array<obs::HistogramSink *, obs::kStageIdCount> _stageHists{};
};

Scheduler::Scheduler(const ServiceConfig &cfg, OramStack &stack,
                     ArrivalGenerator &gen,
                     const std::vector<ArrivalRecord> *injected,
                     std::vector<ControlRecord> *controlLog,
                     ckpt::CheckpointSession *session)
    : _cfg(cfg), _stack(stack), _oram(stack.oram()), _gen(gen),
      _injected(injected), _controlLog(controlLog), _session(session),
      _total(injected != nullptr ? injected->size() : cfg.requests),
      _pool(cfg.queueCapacity),
      _exemplars(PrfKey{0x7376632d6578656dULL /* "svc-exem" */,
                        cfg.arrivals.seed},
                 kExemplarsPerBin, obs::kDefaultLog2Bins),
      _slo(cfg.slo), _flight(stack.flight()),
      _flightLabel(
          obs::flightLabel("svc", serviceConfigFingerprint(cfg))),
      _harness(cfg.obs, _total, session, cfg.checkpointInterval,
               cfg.interruptAfterResolved, "service run",
               "resolved requests")
{
    _latencies.reserve(std::min<std::uint64_t>(_total, 1u << 20));
    if (obs::RunObserver *o = _harness.observer()) {
        _oram.setObserver(o);
        _trace = o->trace();
        if (cfg.obs.metrics)
            registerMetrics(o->registry());
    }
    _harness.wire(
        [this](ckpt::SnapshotWriter &w) { save(w); },
        [this](const ckpt::SnapshotReader &r) { return restore(r); });
    if (!_harness.resume())
        pull();
}

void
Scheduler::registerMetrics(obs::MetricRegistry &reg)
{
    const auto read = [](const std::uint64_t &v) {
        return [&v] { return static_cast<double>(v); };
    };
    reg.gauge(obs::kMetricSvcAdmitted, read(_stats.admitted));
    reg.gauge(obs::kMetricSvcCompleted, read(_stats.completed));
    reg.gauge(obs::kMetricSvcShed, read(_stats.requestsShed));
    reg.gauge(obs::kMetricSvcDeadlineMisses, read(_stats.deadlineMisses));
    reg.gauge(obs::kMetricSvcRetries, read(_stats.retries));
    reg.gauge(obs::kMetricSvcDedupJoins, read(_stats.dedupJoins));
    reg.gauge(obs::kMetricSvcQueueDepth,
              [this] { return static_cast<double>(_queue.size()); });
    reg.gauge(obs::kMetricSvcBackpressure,
              [this] { return _pressureOn ? 1.0 : 0.0; });
    _sloBreaches = &reg.counter(obs::kMetricSvcSloBreaches);
    _latencyHist =
        &reg.histogramLog2(obs::kMetricSvcLatency, obs::kDefaultLog2Bins);
    // Per-stage latency decomposition, one log2 histogram per stage.
    for (std::size_t i = 0; i < obs::kStageIdCount; ++i)
        _stageHists[i] = &reg.histogramLog2(obs::kStageNames[i],
                                            obs::kDefaultLog2Bins);
}

ServiceStats
Scheduler::run(ServiceArtifacts &artifacts)
{
    while (_resolved < _total) {
        bool progress = admitDue();
        if (_cfg.testForceStall) {
            // The seam refuses to issue or advance time, so the only
            // possible outcome is a watchdog trip.
            progress = false;
        } else if (const std::size_t pick = firstEligible();
                   pick == _queue.size()) {
            progress = advance() || progress;
        } else {
            if (_now > _queue[pick].deadlineAt)
                expire(pick);
            else
                issue(pick);
            _harness.atStep(_resolved, _now);
            progress = true;
        }
        if (progress)
            _idleIters = 0;
        else
            idle();
    }
    return finish(artifacts);
}

// --- Steps -----------------------------------------------------------

/** Admit (or shed) every arrival due by now; true on any progress. */
bool
Scheduler::admitDue()
{
    const std::uint64_t before = _resolved;
    std::uint64_t admitted = 0;
    while (_pendingValid && _pending.arrival <= _now) {
        ++_stats.arrivals;
        if (_queue.size() >= _cfg.queueCapacity) {
            shed(obs::FlightKind::ShedAdmission,
                 std::max(_now, _pending.arrival), _pending.client,
                 _pending.arrival);
        } else {
            admit(_pending);
            ++admitted;
        }
        pull();
    }
    if (admitted != 0)
        notePressure();
    if (_resolved == before)
        return admitted != 0;
    _harness.atStep(_resolved, _now);  // Admission sheds resolve.
    return true;
}

/** One path access serves the pick and fans out to every queued
 *  same-address reader. */
void
Scheduler::issue(std::size_t pick)
{
    const Request r = _queue[pick];
    _queue.erase(_queue.begin() + static_cast<std::ptrdiff_t>(pick));
    if (_controlLog != nullptr)
        _controlLog->push_back(
            {ControlRecord::Kind::Access, r.addr, r.isWrite, false});
    const Cycles issueAt = _now;
    const AccessResult res =
        _oram.access(r.addr, r.isWrite ? Op::Write : Op::Read, issueAt);
    ++_stats.issuedAccesses;
    _now = std::max(_now, res.completeAt);
    const Cycles doneAt = r.isWrite ? res.completeAt : res.forwardAt;
    closeOpenUntil(r, issueAt);
    if (res.usedShadow)
        timeline(r).stage(obs::kStageIdShadowForward, issueAt, doneAt);
    else
        timeline(r).stage(obs::kStageIdPathAccess, issueAt, doneAt);
    complete(r, doneAt, res.usedShadow);
    if (!r.isWrite)
        fanOut(r, issueAt, res);
    notePressure();
    if (obs::RunObserver *o = _harness.observer())
        o->onAccessBoundary(_resolved, _now, issueAt, res.forwardAt);
}

/** Expired at the head of the runnable set: retry with jittered
 *  backoff while the budget lasts, then shed — a structured outcome
 *  either way. */
void
Scheduler::expire(std::size_t pick)
{
    Request &r = _queue[pick];
    ++_stats.deadlineMisses;
    if (r.attempts >= _cfg.maxRetries) {
        _pool.release(r.timelineSlot);
        shed(obs::FlightKind::ShedDeadline, _now, r.seq, r.attempts);
        _queue.erase(_queue.begin() + static_cast<std::ptrdiff_t>(pick));
        notePressure();
        return;
    }
    ++r.attempts;
    ++_stats.retries;
    closeOpenUntil(r, _now);
    timeline(r).markBackoff(_now);
    r.notBefore = _now + retryBackoff(_cfg, r.seq, r.attempts);
    r.deadlineAt = r.notBefore + _cfg.deadline;
    _flight.record(_now, obs::FlightKind::Retry, r.seq, r.attempts);
}

/** Nothing runnable: jump to the next event (an arrival or a retry
 *  release).  No event and an empty stream means everything is
 *  resolved already. */
bool
Scheduler::advance()
{
    Cycles next = _pendingValid ? _pending.arrival : kNoCycles;
    for (const Request &r : _queue)
        next = std::min(next, r.notBefore);
    if (next == kNoCycles || next <= _now)
        return false;
    _now = next;
    return true;
}

/** An iteration without progress: watchdog tick, then trip. */
void
Scheduler::idle()
{
    ++_idleIters;
    // Liveness heartbeat: a tick every quarter of the bound, so the
    // flight recorder and the panic-diag forensics show how long the
    // scheduler was wedged before the trip.
    const std::uint64_t tickEvery =
        std::max<std::uint64_t>(1, _cfg.watchdogBound / 4);
    if (_idleIters % tickEvery == 0)
        _flight.record(_now, obs::FlightKind::WatchdogTick, _idleIters);
    if (_idleIters <= _cfg.watchdogBound)
        return;
    _flight.record(_now, obs::FlightKind::WatchdogTrip, _queue.size(),
                   _idleIters);
    _flight.publishFatal(_flightLabel);
    const std::uint64_t eligible = static_cast<std::uint64_t>(
        std::count_if(_queue.begin(), _queue.end(),
                      [this](const Request &r) {
                          return r.notBefore <= _now;
                      }));
    throw ServiceStallError(
        "no admission, completion or time advance for " +
            std::to_string(_idleIters) + " scheduler iterations at "
            "cycle " + std::to_string(_now),
        _queue.size(), eligible, _stats.requestsShed,
        _stats.deadlineMisses, _stats.completed);
}

void
Scheduler::save(ckpt::SnapshotWriter &w) const
{
    ckpt::Serializer &s = w.section(ckpt::kSectionSvc);
    _gen.saveState(s);
    s.u8(_pendingValid ? 1 : 0);
    s.u64(_pending.arrival);
    s.u64(_pending.client);
    s.u64(_pending.addr);
    s.u8(_pending.isWrite ? 1 : 0);
    s.u64(_pulled);
    s.u64(_now);
    s.u64(_nextSeq);
    s.u64(_resolved);
    s.u8(_pressureOn ? 1 : 0);
    s.u64(_queue.size());
    for (const Request &r : _queue) {
        s.u64(r.seq);
        s.u64(r.client);
        s.u64(r.addr);
        s.u8(r.isWrite ? 1 : 0);
        s.u64(r.arrival);
        s.u64(r.notBefore);
        s.u64(r.deadlineAt);
        s.u32(r.attempts);
    }
    for (auto field : kSnapshotStats)
        s.u64(_stats.*field);
    s.vecU64(_latencies);
    ckpt::Serializer &q = w.section(ckpt::kSectionReqObs);
    // Timeline records travel in queue order; slots themselves are
    // re-acquired deterministically on restore.
    q.u64(_queue.size());
    for (const Request &r : _queue)
        _pool.at(r.timelineSlot).saveState(q);
    _stageAcc.saveState(q);
    _exemplars.saveState(q);
    _slo.saveState(q);
    _flight.saveState(q);
    _stack.save(w);
}

/** Snapshot input is outside input: a count that disagrees with the
 *  config or with itself throws CkptMismatchError, never panics. */
std::uint64_t
Scheduler::restore(const ckpt::SnapshotReader &reader)
{
    // Fetch every section first so a structurally wrong snapshot is
    // rejected before any state mutates.
    auto dSvc = reader.section(ckpt::kSectionSvc);
    auto dReq = reader.section(ckpt::kSectionReqObs);
    _stack.restore(reader);
    _gen.loadState(dSvc);
    _pendingValid = dSvc.u8() != 0;
    _pending.arrival = dSvc.u64();
    _pending.client = dSvc.u64();
    _pending.addr = dSvc.u64();
    _pending.isWrite = dSvc.u8() != 0;
    _pulled = dSvc.u64();
    _now = dSvc.u64();
    _nextSeq = dSvc.u64();
    _resolved = dSvc.u64();
    _pressureOn = dSvc.u8() != 0;
    _queue.clear();
    const std::uint64_t depth = dSvc.u64();
    if (depth > _cfg.queueCapacity)
        throw CkptMismatchError(
            "service snapshot queues " + std::to_string(depth) +
            " requests; the admission queue holds " +
            std::to_string(_cfg.queueCapacity));
    for (std::uint64_t i = 0; i < depth; ++i) {
        Request r;
        r.seq = dSvc.u64();
        r.client = dSvc.u64();
        r.addr = dSvc.u64();
        r.isWrite = dSvc.u8() != 0;
        r.arrival = dSvc.u64();
        r.notBefore = dSvc.u64();
        r.deadlineAt = dSvc.u64();
        r.attempts = dSvc.u32();
        _queue.push_back(r);
    }
    for (auto field : kSnapshotStats)
        _stats.*field = dSvc.u64();
    _latencies = dSvc.vecU64();
    const std::uint64_t recs = dReq.u64();
    if (recs != depth)
        throw CkptMismatchError(
            "request-obs section carries " + std::to_string(recs) +
            " timeline records for a queue of depth " +
            std::to_string(depth));
    for (Request &r : _queue) {
        r.timelineSlot = _pool.acquire();
        timeline(r).loadState(dReq);
    }
    _stageAcc.loadState(dReq);
    _exemplars.loadState(dReq);
    _slo.loadState(dReq);
    _flight.loadState(dReq);
    obs::forensics().pressure.store(_pressureOn ? 1 : 0);
    return _resolved;
}

ServiceStats
Scheduler::finish(ServiceArtifacts &artifacts)
{
    // No latch to release: the loop ends with an empty queue, and the
    // steps that empty it (issue, deadline shed) re-check the low
    // watermark.
    noteSloBurn(_slo.flush());
    _stats.sloWindows = _slo.windows();
    _stats.sloBreaches = _slo.breaches();
    _stats.sloWorstBurnMilli = _slo.worstBurnMilli();
    _stats.stages = _stageAcc.finalize();
    artifacts.exemplarsJsonl = _exemplars.renderJsonl();
    artifacts.flightJson = _flight.renderJson(_flightLabel);
    if (!_flight.empty())
        obs::publishFlightDump(_flightLabel, artifacts.flightJson);

    _stats.finishTime = _now;
    _stats.oram = _oram.stats();
    const obs::StageCut latency = obs::cutOf(_latencies);
    _stats.latencyP50 = latency.p50;
    _stats.latencyP99 = latency.p99;
    _stats.latencyP999 = latency.p999;
    _stats.latencyMax = latency.max;
    if (latency.count != 0)
        _stats.latencyMean = static_cast<double>(latency.total) /
                             static_cast<double>(latency.count);

    if (_session != nullptr)
        _session->removeSnapshots();
    _harness.finish(_resolved, _now);
    return _stats;
}

// --- What the steps share --------------------------------------------

void
Scheduler::pull()
{
    _pendingValid = _pulled < _total;
    if (!_pendingValid)
        return;
    _pending = _injected != nullptr ? (*_injected)[_pulled] : _gen.next();
    ++_pulled;
}

void
Scheduler::admit(const ArrivalRecord &arrival)
{
    Request r;
    r.seq = _nextSeq++;
    r.client = arrival.client;
    r.addr = arrival.addr;
    r.isWrite = arrival.isWrite;
    r.arrival = arrival.arrival;
    r.notBefore = arrival.arrival;
    r.deadlineAt = arrival.arrival + _cfg.deadline;
    r.timelineSlot = _pool.acquire();
    timeline(r).reset(r.seq, r.client, r.addr, r.arrival);
    _queue.push_back(r);
    ++_stats.admitted;
    _stats.maxQueueDepth =
        std::max<std::uint64_t>(_stats.maxQueueDepth, _queue.size());
}

/** Lowest-seq eligible request (the queue is in seq order), or the
 *  queue size when none is eligible. */
std::size_t
Scheduler::firstEligible() const
{
    std::size_t i = 0;
    while (i < _queue.size() && _queue[i].notBefore > _now)
        ++i;
    return i;
}

/** Complete every queued reader of @p primary's address off its path
 *  access. */
void
Scheduler::fanOut(const Request &primary, Cycles issueAt,
                  const AccessResult &res)
{
    for (auto it = _queue.begin(); it != _queue.end();) {
        if (it->isWrite || it->addr != primary.addr) {
            ++it;
            continue;
        }
        ++_stats.dedupJoins;
        if (_trace != nullptr)
            _trace->instant(obs::kTrackService, "dedup_join",
                            res.forwardAt);
        closeOpenUntil(*it, issueAt);
        timeline(*it).stage(obs::kStageIdDedupJoin, issueAt,
                            res.forwardAt);
        complete(*it, res.forwardAt, res.usedShadow);
        it = _queue.erase(it);
    }
}

/**
 * Close the open queue-side interval of a request's timeline up to
 * @p t.  Outside a backoff window the whole interval is queue wait;
 * inside one it splits at the (pre-update) notBefore into backoff
 * then renewed wait.  Must run before notBefore changes.
 */
void
Scheduler::closeOpenUntil(const Request &r, Cycles t)
{
    obs::TimelineRecord &rec = timeline(r);
    if (rec.inBackoff()) {
        rec.stage(obs::kStageIdRetryBackoff, rec.openStart(),
                  std::min(t, r.notBefore));
        if (t > r.notBefore)
            rec.stage(obs::kStageIdQueueWait, r.notBefore, t);
    } else {
        rec.stage(obs::kStageIdQueueWait, rec.openStart(), t);
    }
}

void
Scheduler::complete(const Request &r, Cycles at, bool usedShadow)
{
    ++_stats.completed;
    ++_resolved;
    const Cycles lat = at - r.arrival;
    _latencies.push_back(lat);
    if (usedShadow)
        ++_stats.shadowEarlyCompletions;
    if (_latencyHist != nullptr)
        _latencyHist->sample(static_cast<double>(lat));
    const obs::TimelineRecord &rec = timeline(r);
    // The timeline is exact by construction: the stage totals of a
    // completion must reproduce its measured latency.
    if (rec.totalAll() != lat)
        ++_stats.stageBalanceViolations;
    _stageAcc.addCompletion(rec);
    _exemplars.offer(rec, lat, usedShadow, r.attempts);
    for (std::size_t i = 0; i < obs::kStageIdCount; ++i) {
        const Cycles t = rec.total(static_cast<obs::StageId>(i));
        if (_stageHists[i] != nullptr && t != 0)
            _stageHists[i]->sample(static_cast<double>(t));
    }
    _pool.release(r.timelineSlot);
    noteSloBurn(_slo.onResolved(_slo.isGood(lat)));
    if (_trace != nullptr)
        _trace->complete(obs::kTrackService, "request", r.arrival, lat);
}

/** Resolve a request as shed — the structured terminal outcome. */
void
Scheduler::shed(obs::FlightKind kind, Cycles at, std::uint64_t a,
                std::uint64_t b)
{
    _flight.record(at, kind, a, b);
    ++_stats.requestsShed;
    ++(kind == obs::FlightKind::ShedAdmission ? _stats.shedAdmission
                                               : _stats.shedDeadline);
    ++_resolved;
    noteSloBurn(_slo.onResolved(false));
}

void
Scheduler::notePressure()
{
    if (!_pressureOn && _cfg.queueHighWatermark != 0 &&
        _queue.size() >= _cfg.queueHighWatermark)
        setPressure(true);
    else if (_pressureOn && _queue.size() <= _cfg.queueLowWatermark)
        setPressure(false);
}

/** Latch or release duplication suppression on the controller. */
void
Scheduler::setPressure(bool on)
{
    _pressureOn = on;
    ++(on ? _stats.backpressureEntries : _stats.backpressureExits);
    _oram.noteServicePressure(on);
    _flight.record(_now,
                   on ? obs::FlightKind::PressureOn
                      : obs::FlightKind::PressureOff,
                   _queue.size());
    if (_controlLog != nullptr)
        _controlLog->push_back(
            {ControlRecord::Kind::Pressure, 0, false, on});
}

/** React to a closed SLO window that breached the objective. */
void
Scheduler::noteSloBurn(std::int64_t burnMilli)
{
    if (burnMilli < 0)
        return;
    _flight.record(_now, obs::FlightKind::SloBurn,
                   static_cast<std::uint64_t>(burnMilli), _slo.windows());
    if (_sloBreaches != nullptr)
        _sloBreaches->add();
}

} // namespace

/** What the pipeline keeps between construction and run(). */
struct ServicePipeline::Impl
{
    ServiceConfig cfg;
    OramStack stack;
    ArrivalGenerator gen;

    /** Injected arrival list (test seam); empty = use the generator. */
    std::vector<ArrivalRecord> injected;
    bool useInjected = false;

    bool ran = false;
    ServiceArtifacts artifacts;

    explicit Impl(const ServiceConfig &c)
        : cfg(c),
          stack(c.scheme, c.oram, c.shadow, c.dramTiming,
                c.dramGeometry),
          gen(c.arrivals)
    {
    }
};

ServicePipeline::ServicePipeline(const ServiceConfig &cfg)
    : _impl(std::make_unique<Impl>(cfg))
{
    SB_ASSERT(cfg.queueCapacity > 0, "queueCapacity must be positive");
    if (cfg.queueHighWatermark != 0)
        SB_ASSERT(cfg.queueLowWatermark < cfg.queueHighWatermark &&
                      cfg.queueHighWatermark <= cfg.queueCapacity,
                  "queue watermarks must be hysteretic and within "
                  "capacity (low %llu < high %llu <= cap %llu)",
                  static_cast<unsigned long long>(
                      cfg.queueLowWatermark),
                  static_cast<unsigned long long>(
                      cfg.queueHighWatermark),
                  static_cast<unsigned long long>(cfg.queueCapacity));
    SB_ASSERT(cfg.deadline > 0, "deadline must be positive");
    SB_ASSERT(cfg.arrivals.addressBlocks <= cfg.oram.dataBlocks,
              "arrival address space exceeds the ORAM data space");
}

ServicePipeline::~ServicePipeline() = default;

void
ServicePipeline::setTraceSink(TraceSink *sink)
{
    _impl->stack.oram().setTraceSink(sink);
}

const TinyOram &
ServicePipeline::oram() const
{
    return _impl->stack.oram();
}

void
ServicePipeline::injectArrivals(std::vector<ArrivalRecord> arrivals)
{
    _impl->injected = std::move(arrivals);
    _impl->useInjected = true;
}

ServiceStats
ServicePipeline::run(ckpt::CheckpointSession *session)
{
    SB_ASSERT(!_impl->ran, "a ServicePipeline runs exactly once");
    _impl->ran = true;
    SB_ASSERT(session == nullptr || !_impl->useInjected,
              "checkpointing is unsupported with injected arrivals");
    Scheduler scheduler(_impl->cfg, _impl->stack, _impl->gen,
                        _impl->useInjected ? &_impl->injected : nullptr,
                        _controlLog, session);
    return scheduler.run(_impl->artifacts);
}

const ServiceArtifacts &
ServicePipeline::artifacts() const
{
    return _impl->artifacts;
}

ServiceStats
runService(const ServiceConfig &cfg, ckpt::CheckpointSession *session)
{
    ServicePipeline pipeline(cfg);
    return pipeline.run(session);
}

std::uint64_t
serviceConfigFingerprint(const ServiceConfig &cfg)
{
    // Reuse the SystemConfig fingerprint for the embedded memory
    // system so the two stay in lockstep field-for-field, then append
    // the service-only knobs.  Cadence and observability fields
    // (checkpointInterval, interruptAfterResolved, testForceStall,
    // obs) are deliberately omitted: any cadence resumes to the same
    // outcome.
    SystemConfig sys;
    sys.scheme = cfg.scheme;
    sys.oram = cfg.oram;
    sys.shadow = cfg.shadow;
    sys.dramTiming = cfg.dramTiming;
    sys.dramGeometry = cfg.dramGeometry;

    ckpt::Serializer s;
    s.u64(configFingerprint(sys));
    fingerprintArrivals(s, cfg.arrivals);
    s.u64(cfg.requests);
    s.u64(cfg.queueCapacity);
    s.u64(cfg.queueHighWatermark);
    s.u64(cfg.queueLowWatermark);
    s.u64(cfg.deadline);
    s.u32(cfg.maxRetries);
    s.u64(cfg.retryBackoffCycles);
    s.u64(cfg.watchdogBound);
    return ckpt::fnv1a(s.buffer().data(), s.buffer().size());
}

} // namespace svc
} // namespace sboram
