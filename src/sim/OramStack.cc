#include "sim/OramStack.hh"

#include <memory>
#include <utility>

#include "common/Logging.hh"
#include "obs/MetricNames.hh"
#include "obs/Metrics.hh"

namespace sboram {

namespace {

std::unique_ptr<DuplicationPolicy>
makePolicy(Scheme scheme, const OramConfig &oram,
           const ShadowConfig &shadow, ShadowPolicy *&out)
{
    SB_ASSERT(scheme != Scheme::Insecure,
              "an OramStack fronts an ORAM controller");
    if (scheme != Scheme::Shadow)
        return nullptr;
    auto sp = std::make_unique<ShadowPolicy>(shadow, oram.deriveLevels());
    out = sp.get();
    return sp;
}

template <std::uint64_t OramStats::*Field>
double
stat(const TinyOram &o)
{
    return static_cast<double>(o.stats().*Field);
}

/** Num / Den over OramStats, 0 while Den is 0. */
template <std::uint64_t OramStats::*Num, std::uint64_t OramStats::*Den>
double
ratio(const TinyOram &o)
{
    const OramStats &s = o.stats();
    return s.*Den ? static_cast<double>(s.*Num) /
                        static_cast<double>(s.*Den)
                  : 0.0;
}

/** One controller gauge: its column name and how to read it. */
struct ControllerGauge
{
    const char *name;
    double (*read)(const TinyOram &);  ///< Null: the driver's gauge.
};

/** The controller gauges in column order. */
constexpr ControllerGauge kControllerGauges[] = {
    {obs::kMetricRequests, stat<&OramStats::requests>},
    {obs::kMetricStashHits, stat<&OramStats::stashHits>},
    {obs::kMetricPathReads, stat<&OramStats::pathReads>},
    {obs::kMetricShadowForwards, stat<&OramStats::shadowForwards>},
    {obs::kMetricShadowsWritten, stat<&OramStats::shadowsWritten>},
    {obs::kMetricFaultsDetected, stat<&OramStats::faultsDetected>},
    {obs::kMetricFaultsRecovered, stat<&OramStats::faultsRecovered>},
    {obs::kMetricQuarantinedSlots,
     [](const TinyOram &o) -> double {
         return o.health().quarantinedCount();
     }},
    {obs::kMetricDegraded,
     [](const TinyOram &o) { return o.health().degraded() ? 1.0 : 0.0; }},
    {obs::kMetricDegradedEntries, stat<&OramStats::degradedEntries>},
    {obs::kMetricRollbacks, nullptr},
    {obs::kMetricStashReal,
     [](const TinyOram &o) -> double { return o.stash().realCount(); }},
    {obs::kMetricStashShadow,
     [](const TinyOram &o) -> double { return o.stash().shadowCount(); }},
    {obs::kMetricStashHitRate,
     ratio<&OramStats::stashHits, &OramStats::requests>},
    // Mean levels advanced per shadow-forwarded read: how deep in the
    // path the winning shadow copy sat.
    {obs::kMetricShadowHitDepth,
     ratio<&OramStats::levelsAdvanced, &OramStats::shadowForwards>},
};

} // namespace

OramStack::OramStack(Scheme scheme, const OramConfig &oram,
                     const ShadowConfig &shadow, const DramTiming &timing,
                     const DramGeometry &geometry)
    : _dram(timing, geometry),
      _oram(oram, _dram, makePolicy(scheme, oram, shadow, _shadow))
{
    _oram.setFlightRecorder(&_flight);
}

void
OramStack::save(ckpt::SnapshotWriter &w) const
{
    _oram.saveState(w.section(ckpt::kSectionOram));
    if (_shadow != nullptr)
        _shadow->saveState(w.section(ckpt::kSectionPolicy));
    _dram.saveState(w.section(ckpt::kSectionDram));
}

void
OramStack::restore(const ckpt::SnapshotReader &r)
{
    auto dOram = r.section(ckpt::kSectionOram);
    auto dDram = r.section(ckpt::kSectionDram);
    if (_shadow != nullptr) {
        auto dPol = r.section(ckpt::kSectionPolicy);
        _shadow->loadState(dPol);
    }
    _oram.loadState(dOram);
    _dram.loadState(dDram);
}

void
OramStack::registerGauges(obs::MetricRegistry &reg,
                          std::function<double()> rollbacks) const
{
    // Controller counters are polled as gauges: the ORAM hot path
    // keeps its OramStats increments and pays nothing extra per
    // access.
    for (const ControllerGauge &g : kControllerGauges) {
        std::function<double()> fn = rollbacks;
        if (g.read != nullptr)
            fn = [this, read = g.read] { return read(_oram); };
        // sblint:allow-next-line(untracked-metric): every kControllerGauges name is a kMetric* constant
        reg.gauge(g.name, std::move(fn));
    }
    if (_shadow != nullptr) {
        reg.gauge(obs::kMetricPartitionLevel, [policy = _shadow] {
            return static_cast<double>(policy->partitionLevel());
        });
        reg.gauge(obs::kMetricDriCounter, [policy = _shadow] {
            return static_cast<double>(policy->driCounter());
        });
    }
}

} // namespace sboram
