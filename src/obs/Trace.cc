#include "Trace.hh"

namespace sboram {
namespace obs {

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
        // Control characters are dropped: event names are compile-time
        // identifiers, so nothing legitimate is lost.
    }
}

} // namespace

void
TraceSession::begin(unsigned tid, const char *name, std::uint64_t ts)
{
    if (_openDepth.size() <= tid)
        _openDepth.resize(tid + 1, 0);
    ++_openDepth[tid];
    _events.push_back({'B', tid, name, ts, 0});
}

void
TraceSession::end(unsigned tid, std::uint64_t ts)
{
    if (_openDepth.size() <= tid)
        _openDepth.resize(tid + 1, 0);
    if (_openDepth[tid] > 0)
        --_openDepth[tid];
    _events.push_back({'E', tid, std::string(), ts, 0});
}

void
TraceSession::complete(unsigned tid, const char *name,
                       std::uint64_t ts, std::uint64_t dur)
{
    _events.push_back({'X', tid, name, ts, dur});
}

void
TraceSession::instant(unsigned tid, const char *name, std::uint64_t ts)
{
    _events.push_back({'i', tid, name, ts, 0});
}

unsigned
TraceSession::openSpans(unsigned tid) const
{
    return tid < _openDepth.size() ? _openDepth[tid] : 0;
}

std::string
TraceSession::render() const
{
    std::string out = "{\"displayTimeUnit\": \"ns\", "
                      "\"traceEvents\": [";
    bool first = true;
    for (const Event &e : _events) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"ph\": \"";
        out += e.phase;
        out += "\", \"pid\": " + std::to_string(_pid) +
               ", \"tid\": " + std::to_string(e.tid) +
               ", \"ts\": " + std::to_string(e.ts);
        if (e.phase != 'E') {
            out += ", \"name\": \"";
            appendEscaped(out, e.name);
            out += "\"";
        }
        if (e.phase == 'X')
            out += ", \"dur\": " + std::to_string(e.dur);
        if (e.phase == 'i')
            out += ", \"s\": \"t\"";
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace obs
} // namespace sboram
