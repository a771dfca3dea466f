#include "sim/OramStack.hh"

#include <memory>

#include "common/Logging.hh"

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

} // namespace sboram
