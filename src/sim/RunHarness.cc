#include "sim/RunHarness.hh"

#include <string>
#include <utility>

#include "common/Errors.hh"
#include "obs/MetricNames.hh"
#include "obs/Trace.hh"

namespace sboram {

RunHarness::RunHarness(const obs::ObsConfig &obsCfg,
                       std::uint64_t totalSteps,
                       ckpt::CheckpointSession *session,
                       std::uint64_t checkpointInterval,
                       std::uint64_t interruptAfter, const char *driver,
                       const char *stepNoun)
    : _session(session),
      _interval(session != nullptr ? checkpointInterval : 0),
      _interruptAfter(interruptAfter), _driver(driver),
      _stepNoun(stepNoun)
{
    // Null unless the config opts in, so every hook stays a single
    // branch on a cold pointer.
    if (obsCfg.any()) {
        _observer = std::make_unique<obs::RunObserver>(obsCfg);
        _observer->setTotalAccesses(totalSteps);
    }
    if (obsCfg.metrics)
        _snapshots =
            &_observer->registry().counter(obs::kMetricCheckpoints);
}

void
RunHarness::wire(SaveFn save, RestoreFn restore, ScrubFn scrub)
{
    _save = std::move(save);
    _restore = std::move(restore);
    _scrub = std::move(scrub);
    if (_observer)
        _observer->sealRegistry();
}

void
RunHarness::save(ckpt::SnapshotWriter &w) const
{
    _save(w);
    if (_observer)
        _observer->saveState(w.section(ckpt::kSectionObs));
}

void
RunHarness::restore(const ckpt::SnapshotReader &r)
{
    _lastSnapshotAt = _restore(r);
    if (_observer && r.hasSection(ckpt::kSectionObs)) {
        auto dObs = r.section(ckpt::kSectionObs);
        _observer->loadState(dObs);
    }
}

bool
RunHarness::resume()
{
    auto reader = _session ? _session->loadLatest() : nullptr;
    if (reader)
        restore(*reader);
    return reader != nullptr;
}

void
RunHarness::commit()
{
    ckpt::SnapshotWriter writer;
    save(writer);
    _session->commitSnapshot(writer);
    if (_snapshots != nullptr)
        _snapshots->add();
}

void
RunHarness::checkpoint(std::uint64_t done, Cycles now, bool stopping)
{
    if (_session != nullptr) {
        // Scrub-before-commit: a snapshot taken while a fault sits
        // latent would hand a rollback a poisoned restore point, so
        // an unhealable corruption skips this commit and keeps the
        // last clean generation.
        const bool clean = !_scrub || _scrub();
        if (clean)
            commit();
        _lastSnapshotAt = done;
        if (obs::TraceSession *t =
                _observer ? _observer->trace() : nullptr)
            t->instant(obs::kTrackCheckpoint,
                       clean ? "checkpoint" : "checkpoint_skipped", now);
    }
    if (stopping)
        throw InterruptedError(std::string(_driver) + " stopped after " +
                                   std::to_string(done) + " " +
                                   _stepNoun +
                                   " (final checkpoint written)",
                               done);
}

void
RunHarness::finish(std::uint64_t done, Cycles now)
{
    if (_observer) {
        _observer->finalSample(done, now);
        _observer->close();
    }
}

} // namespace sboram
