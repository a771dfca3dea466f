/**
 * @file
 * Always-on bounded flight recorder for control/pressure/recovery
 * events (DESIGN.md §13).
 *
 * A FlightRecorder is a fixed-capacity ring of the last N control
 * events a run emitted — admission sheds, watermark latches, retries,
 * quarantines, degraded-mode transitions, auto-rollbacks, watchdog
 * ticks — each a (virtual cycle, kind, two operands) tuple.  It is
 * always on: recording is an array store with no allocation, no
 * clock reads and no I/O, so it cannot perturb the run or leak into
 * the externally visible trace (events index control decisions, never
 * addresses or path positions; see DESIGN.md §13 for the argument).
 *
 * record() is the one call a control event makes.  The kind table
 * (flightKindInfo) says what else the event feeds: the trace instant
 * it renders as when a TraceSession is attached (name and track only,
 * at the event's cycle — the operands never reach the trace) and the
 * panic-diag forensics latch it sets.  So the ring, the trace and the
 * forensics cannot disagree about which control events happened or
 * in what order.
 *
 * Rendered dumps land in two places:
 *  - a process-wide registry keyed by (label, content hash), flushed
 *    by guardedMain into flightrec-<bench>.json on any exit.  Content
 *    keying dedupes the determinism passes and the sorted key order
 *    makes the artifact byte-identical at any SB_BENCH_THREADS;
 *  - the panic slot: a run that is about to rethrow a fatal error
 *    stores its dump first, and every guardedMain failure path prints
 *    it as a `panic-flight:` line next to the `panic-diag:` line.
 *
 * The ring serializes into the kSectionReqObs snapshot section so a
 * resumed run's dump carries the pre-kill events too.
 */

#ifndef SBORAM_OBS_FLIGHTRECORDER_HH
#define SBORAM_OBS_FLIGHTRECORDER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/Serde.hh"
#include "common/Types.hh"

namespace sboram {
namespace obs {

class TraceSession;

/** What happened.  Operands a/b per kind are documented inline. */
enum class FlightKind : std::uint8_t
{
    ShedAdmission = 0,   ///< a=client, b=arrival cycle.
    ShedDeadline = 1,    ///< a=seq, b=attempts consumed.
    PressureOn = 2,      ///< a=queue depth.
    PressureOff = 3,     ///< a=queue depth.
    Retry = 4,           ///< a=seq, b=attempt number.
    WatchdogTick = 5,    ///< a=idle iterations so far.
    WatchdogTrip = 6,    ///< a=queue depth, b=idle iterations.
    SloBurn = 7,         ///< a=burn rate (milli), b=window index.
    SlotQuarantine = 8,  ///< a=slot index.
    DegradedEnter = 9,   ///< a=real-stash occupancy.
    DegradedExit = 10,   ///< a=real-stash occupancy.
    AutoRollback = 11,   ///< a=rollbacks used, b=failed-at access.
    Corruption = 12,     ///< a=access count, b=tree level.
};

/** The panic-diag forensics field a kind sets (ServiceForensics). */
enum class FlightLatch : std::uint8_t
{
    None,
    PressureOn,    ///< pressure = 1.
    PressureOff,   ///< pressure = 0.
    DegradedOn,    ///< degraded = 1.
    DegradedOff,   ///< degraded = 0.
    WatchdogTick,  ///< last_watchdog_tick = the event's cycle.
};

/** One row of the kind table. */
struct FlightKindInfo
{
    const char *name;     ///< Ring/JSON dump vocabulary.
    const char *instant;  ///< Trace-instant name, or null for none.
    unsigned track;       ///< Trace track of the instant (Trace.hh).
    FlightLatch latch;
};

/** The kind table row of @p kind (its name is the dump vocabulary). */
const FlightKindInfo &flightKindInfo(FlightKind kind);

/** One recorded event. */
struct FlightEvent
{
    std::uint64_t cycle = 0;  ///< Virtual time, never wall clock.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    FlightKind kind = FlightKind::ShedAdmission;
};

/** Default ring capacity: enough tail context for a panic forensics
 *  read without the dump dominating the artifact. */
inline constexpr std::size_t kFlightCapacity = 128;

class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = kFlightCapacity);

    /** Feed this recorder's instants into @p trace (null: none). */
    void attachTrace(TraceSession *trace) { _trace = trace; }

    /**
     * Record one event (overwrites the oldest when full), emit its
     * trace instant when a trace is attached and set its forensics
     * latch — everything the kind table says the event feeds.
     */
    void record(std::uint64_t cycle, FlightKind kind, std::uint64_t a = 0,
                std::uint64_t b = 0);

    /** Retained events, oldest first. */
    std::vector<FlightEvent> events() const;

    std::uint64_t total() const { return _total; }
    std::uint64_t
    dropped() const
    {
        return _total > _ring.size() ? _total - _ring.size() : 0;
    }
    bool empty() const { return _total == 0; }
    std::size_t capacity() const { return _ring.size(); }

    /** One strict-JSON dump object (label, totals, event list). */
    std::string renderJson(const std::string &label) const;

    /** Hand the ring to the panic path ahead of a fatal rethrow:
     *  publish the rendered dump and store it in the panic slot. */
    void publishFatal(const std::string &label) const;

    void saveState(ckpt::Serializer &out) const;
    void loadState(ckpt::Deserializer &in);

  private:
    /** The ring store alone: what loadState replays through, so a
     *  restored tail re-emits no instant and sets no latch. */
    void
    store(const FlightEvent &e)
    {
        _ring[_total % _ring.size()] = e;
        ++_total;
    }

    std::vector<FlightEvent> _ring;
    std::uint64_t _total = 0;
    TraceSession *_trace = nullptr;
};

/** Dump label of a run: "<prefix>-<fingerprint as 16 hex digits>",
 *  stable across processes.  Keyed on the point alone, never on the
 *  observer's artifact label: the dump is always on and must not move
 *  when someone watches. */
std::string flightLabel(const char *prefix, std::uint64_t fingerprint);

// --- Process-wide dump registry and panic forensics ------------------

/** Register a rendered dump under (label, content-hash).  Identical
 *  dumps (the determinism passes) collapse to one entry; distinct
 *  runs sort by key so the artifact is thread-count independent. */
void publishFlightDump(const std::string &label,
                       const std::string &json);

/** Every published dump, sorted by registry key. */
std::vector<std::pair<std::string, std::string>> flightDumps();

/**
 * The full flightrec-<bench>.json body: every published dump plus —
 * when @p includePanic — the panic slot.  Empty string when there is
 * nothing to write (benches with no recorder stay artifact-free).
 */
std::string renderFlightArtifact(bool includePanic);

/** Store the dump of a run that is about to rethrow a fatal error. */
void notePanicFlight(const std::string &json);

/** The last panic dump, or empty. */
std::string panicFlight();

/** Test seam: clear the registry, panic slot and forensics. */
void resetFlightStateForTesting();

/**
 * Last-known control-plane state for the unconditional panic-diag
 * fields: the service-pressure latch, the tier-2 degraded latch and
 * the last watchdog tick.  Set by FlightRecorder::record() from the
 * kind table (a restore may re-assert the pressure latch); read
 * (cross-thread, hence atomics) by emitPanicDiag on the main thread
 * after a future rethrow.  With concurrent runs the slot
 * is last-writer-wins — panic drills run single-threaded.
 */
struct ServiceForensics
{
    std::atomic<std::uint32_t> pressure{0};
    std::atomic<std::uint32_t> degraded{0};
    std::atomic<std::uint64_t> watchdogTickCycle{0};
};

ServiceForensics &forensics();

/** " pressure=.. degraded=.. last_watchdog_tick=.." for panic-diag. */
std::string forensicsSuffix();

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_FLIGHTRECORDER_HH
