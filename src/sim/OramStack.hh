/**
 * @file
 * The one assembly of an ORAM memory system (DESIGN.md §7 "Wiring").
 * Both drivers (runSystem, ServicePipeline), the benches and the unit
 * tests build their controller here, so the way a controller is wired
 * and checkpointed cannot drift between them.
 */

#ifndef SBORAM_SIM_ORAMSTACK_HH
#define SBORAM_SIM_ORAMSTACK_HH

#include <cstdint>
#include <functional>

#include "ckpt/Snapshot.hh"
#include "mem/DramModel.hh"
#include "obs/FlightRecorder.hh"
#include "oram/TinyOram.hh"
#include "shadow/ShadowPolicy.hh"

namespace sboram {

namespace obs {
class MetricRegistry;
} // namespace obs

/** Which memory system backs the CPU. */
enum class Scheme : std::uint8_t
{
    Insecure,  ///< Plain DRAM, no protection.
    Tiny,      ///< Tiny ORAM baseline.
    Shadow,    ///< Tiny ORAM + Shadow Block duplication.
};

/**
 * DramModel + scheme-selected duplication policy (ShadowPolicy for
 * Scheme::Shadow, none for Tiny) + TinyOram with its flight recorder
 * attached.  Scheme::Insecure has no controller and is rejected.
 */
class OramStack
{
  public:
    OramStack(Scheme scheme, const OramConfig &oram,
              const ShadowConfig &shadow = ShadowConfig{},
              const DramTiming &timing = DramTiming::ddr3_1333(),
              const DramGeometry &geometry = DramGeometry{});

    OramStack(const OramStack &) = delete;
    OramStack &operator=(const OramStack &) = delete;

    DramModel &dram() { return _dram; }
    TinyOram &oram() { return _oram; }
    /** Null unless Scheme::Shadow. */
    ShadowPolicy *shadowPolicy() const { return _shadow; }
    /** The drivers add their own control events and checkpoint it. */
    obs::FlightRecorder &flight() { return _flight; }

    /** Write the controller, policy (Shadow only) and DRAM sections. */
    void save(ckpt::SnapshotWriter &w) const;
    /**
     * Restore them.  Every section is fetched before any state
     * mutates, so a snapshot lacking one throws CkptMismatchError and
     * leaves the stack untouched; callers fetch their own sections
     * before calling this.
     */
    void restore(const ckpt::SnapshotReader &r);

    /**
     * Register the controller gauges (counters, stash, health and,
     * for Scheme::Shadow, the partition pair) on @p reg.
     * @p rollbacks is the driver's tier-3 rollback count; it keeps
     * its column between health.degraded_entries and stash.real.
     */
    void registerGauges(obs::MetricRegistry &reg,
                        std::function<double()> rollbacks) const;

  private:
    DramModel _dram;
    ShadowPolicy *_shadow = nullptr;  ///< Owned by _oram.
    obs::FlightRecorder _flight;
    TinyOram _oram;
};

} // namespace sboram

#endif // SBORAM_SIM_ORAMSTACK_HH
