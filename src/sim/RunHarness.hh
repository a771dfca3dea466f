/**
 * @file
 * The run scaffolding both drivers share (DESIGN.md §7 "Wiring"):
 * observer, snapshot cadence and stop, the optional kSectionObs,
 * resume and the final sample.  runSystem and ServicePipeline hand it
 * their own sections and call atStep() after every step they count.
 */

#ifndef SBORAM_SIM_RUNHARNESS_HH
#define SBORAM_SIM_RUNHARNESS_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "ckpt/Checkpoint.hh"
#include "common/Types.hh"
#include "obs/Observer.hh"

namespace sboram {

class RunHarness
{
  public:
    using SaveFn = std::function<void(ckpt::SnapshotWriter &)>;
    /** Fetches every section before loading any; returns the step
     *  count the snapshot was taken at. */
    using RestoreFn =
        std::function<std::uint64_t(const ckpt::SnapshotReader &)>;
    /** Pre-commit check; false skips this cadence commit. */
    using ScrubFn = std::function<bool()>;

    /**
     * @p totalSteps feeds the heartbeat ETA; a null @p session never
     * snapshots; @p checkpointInterval 0 snapshots only on a stop;
     * @p interruptAfter (test seam) stops after that many steps, 0
     * never.  @p driver and @p stepNoun word the InterruptedError.
     */
    RunHarness(const obs::ObsConfig &obsCfg, std::uint64_t totalSteps,
               ckpt::CheckpointSession *session,
               std::uint64_t checkpointInterval,
               std::uint64_t interruptAfter, const char *driver,
               const char *stepNoun);
    RunHarness(const RunHarness &) = delete;
    RunHarness &operator=(const RunHarness &) = delete;

    /** Null unless the ObsConfig enables anything. */
    obs::RunObserver *observer() const { return _observer.get(); }

    /** Bind the driver's sections and seal the metric registry, so
     *  the driver registers its own metrics first. */
    void wire(SaveFn save, RestoreFn restore, ScrubFn scrub = {});

    /** The driver's sections, then kSectionObs when observing. */
    void save(ckpt::SnapshotWriter &w) const;
    /** The driver's sections, then kSectionObs if observing and
     *  present; the cadence restarts at the restored step. */
    void restore(const ckpt::SnapshotReader &r);
    /** Restore the newest valid generation; false on a fresh start. */
    bool resume();
    /** Commit and count a snapshot now, off the cadence. */
    void commit();

    /** Snapshot when due; on a stop, snapshot and throw
     *  InterruptedError.  Inline: unattached, a couple of compares. */
    void
    atStep(std::uint64_t done, Cycles now)
    {
        const bool stopping =
            ckpt::stopRequested() ||
            (_interruptAfter != 0 && done >= _interruptAfter);
        if (stopping ||
            (_interval != 0 && done - _lastSnapshotAt >= _interval))
            checkpoint(done, now, stopping);
    }

    /** Final sample; writes the observer's artifacts. */
    void finish(std::uint64_t done, Cycles now);

  private:
    void checkpoint(std::uint64_t done, Cycles now, bool stopping);

    std::unique_ptr<obs::RunObserver> _observer;
    obs::Counter *_snapshots = nullptr;
    ckpt::CheckpointSession *_session;
    std::uint64_t _interval;  ///< 0 without a session.
    std::uint64_t _interruptAfter;
    std::uint64_t _lastSnapshotAt = 0;
    const char *_driver;
    const char *_stepNoun;
    SaveFn _save;
    RestoreFn _restore;
    ScrubFn _scrub;
};

} // namespace sboram

#endif // SBORAM_SIM_RUNHARNESS_HH
