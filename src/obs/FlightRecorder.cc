#include "obs/FlightRecorder.hh"

#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>

#include "obs/Trace.hh"

namespace sboram {
namespace obs {

namespace {

/** FNV-1a over the dump body — the content half of the registry key. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct FlightState
{
    std::mutex mutex;
    /// (label + "-" + content hash) -> rendered dump.  Sorted map:
    /// iteration order — and hence the artifact — is independent of
    /// publish order, i.e. of SB_BENCH_THREADS scheduling.
    std::map<std::string, std::string> dumps;
    std::string panic;
};

FlightState &
state()
{
    static FlightState s;
    return s;
}

/** The kind table, indexed by FlightKind. */
constexpr FlightKindInfo kFlightKinds[] = {
    {"shed_admission", "shed_admission", kTrackService,
     FlightLatch::None},
    {"shed_deadline", "shed_deadline", kTrackService, FlightLatch::None},
    {"pressure_on", "svc_backpressure_enter", kTrackService,
     FlightLatch::PressureOn},
    {"pressure_off", "svc_backpressure_exit", kTrackService,
     FlightLatch::PressureOff},
    {"retry", nullptr, 0, FlightLatch::None},
    {"watchdog_tick", nullptr, 0, FlightLatch::WatchdogTick},
    {"watchdog_trip", nullptr, 0, FlightLatch::None},
    {"slo_burn", "slo_burn", kTrackService, FlightLatch::None},
    // The fault ladder emits its own slot_quarantined instant: its
    // track follows the path being read.
    {"slot_quarantined", nullptr, 0, FlightLatch::None},
    {"degraded_enter", "degraded_enter", kTrackEviction,
     FlightLatch::DegradedOn},
    {"degraded_exit", "degraded_exit", kTrackEviction,
     FlightLatch::DegradedOff},
    {"auto_rollback", "auto_rollback", kTrackCheckpoint,
     FlightLatch::None},
    {"corruption", nullptr, 0, FlightLatch::None},
};
static_assert(std::size(kFlightKinds) ==
                  static_cast<std::size_t>(FlightKind::Corruption) + 1,
              "one kind-table row per FlightKind");

} // namespace

const FlightKindInfo &
flightKindInfo(FlightKind kind)
{
    const std::size_t k = static_cast<std::size_t>(kind);
    static const FlightKindInfo kUnknown{"unknown", nullptr, 0,
                                         FlightLatch::None};
    return k < std::size(kFlightKinds) ? kFlightKinds[k] : kUnknown;
}

void
FlightRecorder::record(std::uint64_t cycle, FlightKind kind,
                       std::uint64_t a, std::uint64_t b)
{
    store(FlightEvent{cycle, a, b, kind});
    const FlightKindInfo &info = flightKindInfo(kind);
    if (_trace != nullptr && info.instant != nullptr)
        _trace->instant(info.track, info.instant, cycle);
    ServiceForensics &f = forensics();
    switch (info.latch) {
    case FlightLatch::None: break;
    case FlightLatch::PressureOn: f.pressure.store(1); break;
    case FlightLatch::PressureOff: f.pressure.store(0); break;
    case FlightLatch::DegradedOn: f.degraded.store(1); break;
    case FlightLatch::DegradedOff: f.degraded.store(0); break;
    case FlightLatch::WatchdogTick:
        f.watchdogTickCycle.store(cycle);
        break;
    }
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : _ring(capacity == 0 ? 1 : capacity)
{
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::vector<FlightEvent> out;
    const std::size_t kept =
        _total < _ring.size() ? static_cast<std::size_t>(_total)
                              : _ring.size();
    out.reserve(kept);
    const std::uint64_t first = _total - kept;
    for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(_ring[(first + i) % _ring.size()]);
    return out;
}

std::string
FlightRecorder::renderJson(const std::string &label) const
{
    std::string out = "{\"label\": \"" + label +
                      "\", \"total\": " + std::to_string(_total) +
                      ", \"dropped\": " + std::to_string(dropped()) +
                      ", \"events\": [";
    bool first = true;
    for (const FlightEvent &e : events()) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"cycle\": " + std::to_string(e.cycle) +
               ", \"kind\": \"";
        out += flightKindInfo(e.kind).name;
        out += "\", \"a\": " + std::to_string(e.a) +
               ", \"b\": " + std::to_string(e.b) + "}";
    }
    out += "]}";
    return out;
}

void
FlightRecorder::publishFatal(const std::string &label) const
{
    const std::string dump = renderJson(label);
    publishFlightDump(label, dump);
    notePanicFlight(dump);
}

std::string
flightLabel(const char *prefix, std::uint64_t fingerprint)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s-%016llx", prefix,
                  static_cast<unsigned long long>(fingerprint));
    return buf;
}

void
FlightRecorder::saveState(ckpt::Serializer &out) const
{
    out.u64(_ring.size());
    out.u64(_total);
    for (const FlightEvent &e : events()) {
        out.u64(e.cycle);
        out.u64(e.a);
        out.u64(e.b);
        out.u8(static_cast<std::uint8_t>(e.kind));
    }
}

void
FlightRecorder::loadState(ckpt::Deserializer &in)
{
    const std::uint64_t capacity = in.u64();
    const std::uint64_t total = in.u64();
    _ring.assign(capacity == 0 ? 1 : capacity, FlightEvent{});
    _total = 0;
    const std::uint64_t kept =
        total < _ring.size() ? total : _ring.size();
    // Replay the retained tail through the bare ring store so the
    // cursor lands exactly where the saved run left it.  Not through
    // record(): these events already reached the trace and the
    // forensics when they happened.
    _total = total - kept;
    for (std::uint64_t i = 0; i < kept; ++i) {
        FlightEvent e;
        e.cycle = in.u64();
        e.a = in.u64();
        e.b = in.u64();
        e.kind = static_cast<FlightKind>(in.u8());
        store(e);
    }
}

void
publishFlightDump(const std::string &label, const std::string &json)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.dumps[label + "-" + hex64(fnv1a(json))] = json;
}

std::vector<std::pair<std::string, std::string>>
flightDumps()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    return {s.dumps.begin(), s.dumps.end()};
}

std::string
renderFlightArtifact(bool includePanic)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    if (s.dumps.empty() && (!includePanic || s.panic.empty()))
        return "";
    std::string out = "{\"dumps\": [";
    bool first = true;
    for (const auto &kv : s.dumps) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"key\": \"" + kv.first +
               "\", \"dump\": " + kv.second + "}";
    }
    out += "]";
    if (includePanic && !s.panic.empty())
        out += ", \"panic\": " + s.panic;
    out += "}\n";
    return out;
}

void
notePanicFlight(const std::string &json)
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.panic = json;
}

std::string
panicFlight()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    return s.panic;
}

void
resetFlightStateForTesting()
{
    FlightState &s = state();
    std::lock_guard<std::mutex> guard(s.mutex);
    s.dumps.clear();
    s.panic.clear();
    forensics().pressure.store(0);
    forensics().degraded.store(0);
    forensics().watchdogTickCycle.store(0);
}

ServiceForensics &
forensics()
{
    static ServiceForensics f;
    return f;
}

std::string
forensicsSuffix()
{
    const ServiceForensics &f = forensics();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " pressure=%u degraded=%u last_watchdog_tick=%llu",
                  f.pressure.load(), f.degraded.load(),
                  static_cast<unsigned long long>(
                      f.watchdogTickCycle.load()));
    return buf;
}

} // namespace obs
} // namespace sboram
