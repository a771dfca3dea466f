/**
 * @file
 * Chrome trace-event emission for one simulation run (DESIGN.md §9).
 *
 * A TraceSession buffers events in memory and renders them as the
 * Chrome trace-event JSON object format (`{"traceEvents": [...]}`),
 * loadable in Perfetto and chrome://tracing.  Timestamps are the
 * simulator's cycle counts (declared via "displayTimeUnit"), so a
 * trace is bit-reproducible: no wall clock is ever read here.
 *
 * Track layout (tid within one run's pid):
 *   0  request pipeline — access spans (B/E), position-map spans,
 *      path reads (X), crypto (X), shadow-forward instants
 *   1  background eviction — evict read/write (X), fault instants
 *      raised during evictions
 *   2  checkpoint — snapshot-commit spans (B/E)
 *   3  service — request spans (X) from arrival to completion,
 *      shed / dedup-join / backpressure instants (src/svc)
 *
 * B/E spans on one tid must nest; the session tracks per-tid open
 * depth so tests (and tools/obs_check) can assert balance.  Eviction
 * work overlaps the *next* access in simulated time, which is exactly
 * why it gets its own track instead of breaking tid 0's nesting.
 */

#ifndef SBORAM_OBS_TRACE_HH
#define SBORAM_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sboram {
namespace obs {

/** Well-known tids; see the track layout above. */
enum : unsigned
{
    kTrackPipeline = 0,
    kTrackEviction = 1,
    kTrackCheckpoint = 2,
    kTrackService = 3,
};

class TraceSession
{
  public:
    /** @param pid Process-lane id shown by the viewer (run id). */
    explicit TraceSession(unsigned pid = 0) : _pid(pid) {}

    /** Begin a nested span on @p tid at simulated time @p ts. */
    void begin(unsigned tid, const char *name, std::uint64_t ts);

    /** End the innermost open span on @p tid. */
    void end(unsigned tid, std::uint64_t ts);

    /** Self-contained span (ph "X") with a known duration. */
    void complete(unsigned tid, const char *name, std::uint64_t ts,
                  std::uint64_t dur);

    /** Zero-duration marker (ph "i", thread scope). */
    void instant(unsigned tid, const char *name, std::uint64_t ts);

    /** Open B-spans on @p tid (0 when balanced). */
    unsigned openSpans(unsigned tid) const;

    std::size_t eventCount() const { return _events.size(); }

    /**
     * Render the buffered events as the Chrome trace object format.
     * Every B implicitly closed here would be a bug — render() does
     * not auto-close; obs_check greps for the imbalance instead.
     */
    std::string render() const;

  private:
    struct Event
    {
        char phase;           ///< B, E, X or i.
        unsigned tid = 0;
        std::string name;     ///< Empty for E.
        std::uint64_t ts = 0;
        std::uint64_t dur = 0;   ///< X only.
    };

    unsigned _pid;
    std::vector<Event> _events;
    std::vector<unsigned> _openDepth;  ///< Indexed by tid.
};

} // namespace obs
} // namespace sboram

#endif // SBORAM_OBS_TRACE_HH
