/**
 * @file
 * Outside-in probes: the benchmark measures each layer by wrapping
 * the public interfaces sim/System and svc/Service already plug
 * together, never by editing the simulator.
 *
 *  - Controller assembles DramModel + TinyOram (+ ShadowPolicy) the
 *    way sim/System and svc/Service do.
 *  - CountingPolicy is a DuplicationPolicy decorator around
 *    ShadowPolicy: it counts every hook call and times all but
 *    hotnessOf (a timestamp would cost more than the lookup).
 *  - BenchPort is the CPU-facing MemoryPort with sim/System's
 *    timing protection and idle-gap virtual dummies; when probed it
 *    times the controller calls and samples stash occupancy.
 *  - replayPaths re-drives a recorded external path trace through a
 *    fresh DramModel, timing the DRAM model on its own.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/Serde.hh"
#include "cpu/CpuModel.hh"
#include "mem/DramModel.hh"
#include "oram/TinyOram.hh"
#include "security/TraceRecorder.hh"
#include "shadow/ShadowPolicy.hh"
#include "sim/System.hh"

namespace perfbench {

using namespace sboram;

class CountingPolicy final : public DuplicationPolicy
{
  public:
    struct Counts
    {
        std::uint64_t hotnessLookups = 0;
        std::uint64_t offers = 0;
        std::uint64_t placed = 0;
        std::uint64_t selectCalls = 0;
        std::uint64_t selectChosen = 0;
        double hookSeconds = 0.0;  ///< Every hook but hotnessOf.
    };

    explicit CountingPolicy(std::unique_ptr<ShadowPolicy> inner)
        : _inner(std::move(inner))
    {
    }

    void beginPathWrite(LeafLabel leaf) override;
    void onBlockPlaced(const PlacedBlock &placed) override;
    void offerStashShadow(Addr addr, LeafLabel leaf,
                          std::uint32_t version, unsigned rearLevel,
                          unsigned maxLevel) override;
    std::optional<ShadowChoice> selectShadow(unsigned level) override;
    void endPathWrite() override;
    void onLlcMiss(Addr addr) override;
    void onRequestClassified(bool wasDummy) override;

    unsigned
    partitionLevel() const override
    {
        return _inner->partitionLevel();
    }

    std::uint32_t
    hotnessOf(Addr addr) const override
    {
        ++_counts.hotnessLookups;
        return _inner->hotnessOf(addr);
    }

    const Counts &counts() const { return _counts; }

  private:
    std::unique_ptr<ShadowPolicy> _inner;
    mutable Counts _counts;
};

/** DRAM model plus controller, wired as sim/System and svc/Service
 *  wire them. */
struct Controller
{
    Controller(Scheme scheme, const OramConfig &oramCfg,
               const ShadowConfig &shadowCfg, const DramTiming &timing,
               const DramGeometry &geometry, bool counted);

    DramModel dram;
    /** Non-owning views of the policy the controller owns; null when
     *  the scheme has none (or, for counting, when not counted).
     *  Declared before `oram`: its initializer sets them. */
    ShadowPolicy *shadow = nullptr;
    CountingPolicy *counting = nullptr;
    TinyOram oram;
};

/** Host time and stash occupancy seen at the port when probed. */
struct PortProbe
{
    double requestSeconds = 0.0;  ///< Inside request().
    double oramSeconds = 0.0;     ///< Inside access() / dummyAccess().
    std::uint64_t stashRealPeak = 0;
    double stashShadowSum = 0.0;  ///< Summed over access boundaries.
    std::uint64_t samples = 0;

    /** Record the stash occupancy at an access boundary. */
    void
    sampleStash(const Stash &stash)
    {
        stashRealPeak = std::max(stashRealPeak, stash.realCount());
        stashShadowSum += static_cast<double>(stash.shadowCount());
        ++samples;
    }
};

/**
 * MemoryPort in front of the controller.  Mirrors sim/System's
 * OramPort (stash hits bypass the slot grid; timing protection fires
 * dummies in every elapsed slot; otherwise long idle gaps count as
 * virtual dummies for the DRI counter), so a run through it
 * reproduces runSystem's simulated statistics.
 */
class BenchPort : public MemoryPort
{
  public:
    BenchPort(TinyOram &oram, const SystemConfig &cfg, bool probed,
              std::size_t expectedRequests);

    MemoryReply request(Addr addr, Op op, Cycles issueTime) override;

    /** Simulated issue-to-forward latency of every request. */
    const std::vector<Cycles> &latencies() const { return _latencies; }
    const PortProbe &probe() const { return _probe; }

  private:
    AccessResult access(Addr addr, Op op, Cycles start);
    void fireDummy(Cycles slot);

    TinyOram &_oram;
    bool _tp;
    Cycles _interval;
    bool _virtualDummies;
    bool _probed;
    Cycles _idleThreshold;
    Cycles _nextSlot = 0;
    Cycles _lastComplete = 0;
    std::vector<Cycles> _latencies;
    PortProbe _probe;
};

struct DramReplay
{
    DramStats stats;
    double seconds = 0.0;  ///< Host time inside accessBatch only.
};

/**
 * Rebuild the DRAM command stream of @p paths (the controller's
 * external trace) from the tree geometry and address map, and drive
 * it through a fresh DramModel.
 */
DramReplay replayPaths(const std::vector<TraceEvent> &paths,
                       const TinyOram &oram, const DramTiming &timing,
                       const DramGeometry &geometry);

bool sameDramCounts(const DramStats &a, const DramStats &b);
bool sameOramStats(const OramStats &a, const OramStats &b);

/** Hash of simulated results: equal iff two runs simulated alike. */
class Fingerprint
{
  public:
    Fingerprint &add(std::uint64_t v)
    {
        _s.u64(v);
        return *this;
    }
    Fingerprint &add(const OramStats &s);
    Fingerprint &add(const DramStats &s);
    std::uint64_t
    value() const
    {
        return ckpt::fnv1a(_s.buffer().data(), _s.buffer().size());
    }

  private:
    ckpt::Serializer _s;
};

/** Nearest-rank percentile of a sample, @p q in thousandths. */
Cycles percentile(std::vector<Cycles> sample, unsigned q);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
