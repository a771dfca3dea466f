#include "obs/RequestTrace.hh"

#include <algorithm>
#include <string>

#include "common/Errors.hh"
#include "common/Logging.hh"
#include "obs/Metrics.hh"

namespace sboram {
namespace obs {

namespace {

/** Nearest-rank percentile over a sorted sample, q in thousandths. */
Cycles
percentile(const std::vector<Cycles> &sorted, std::uint64_t q)
{
    if (sorted.empty())
        return 0;
    const std::uint64_t n = sorted.size();
    std::uint64_t k = (n * q + 999) / 1000;
    if (k == 0)
        k = 1;
    return sorted[k - 1];
}

/** Stage id read from a snapshot; anything out of range is input
 *  the loader rejects, not a crash. */
StageId
loadStageId(ckpt::Deserializer &in)
{
    const std::uint8_t id = in.u8();
    if (id >= kStageIdCount)
        throw CkptMismatchError("snapshot timeline segment has stage id " +
                                std::to_string(id) + " (want < " +
                                std::to_string(kStageIdCount) + ")");
    return static_cast<StageId>(id);
}

} // namespace

StageCut
cutOf(std::vector<Cycles> samples)
{
    StageCut cut;
    if (samples.empty())
        return cut;
    std::sort(samples.begin(), samples.end());
    cut.count = samples.size();
    cut.p50 = percentile(samples, 500);
    cut.p99 = percentile(samples, 990);
    cut.p999 = percentile(samples, 999);
    cut.max = samples.back();
    for (Cycles t : samples)
        cut.total += t;
    return cut;
}

void
TimelineRecord::saveState(ckpt::Serializer &out) const
{
    out.u64(_seq);
    out.u64(_client);
    out.u64(_addr);
    out.u64(_arrival);
    out.u64(_openStart);
    out.u8(_inBackoff ? 1 : 0);
    out.u32(_truncated);
    out.u64(_nSegs);
    for (std::size_t i = 0; i < _nSegs; ++i) {
        out.u64(_segs[i].start);
        out.u64(_segs[i].end);
        out.u8(_segs[i].stage);
    }
    for (Cycles t : _totals)
        out.u64(t);
}

void
TimelineRecord::loadState(ckpt::Deserializer &in)
{
    _seq = in.u64();
    _client = in.u64();
    _addr = in.u64();
    _arrival = in.u64();
    _openStart = in.u64();
    _inBackoff = in.u8() != 0;
    _truncated = in.u32();
    const std::uint64_t segs = in.u64();
    if (segs > kMaxSegs)
        throw CkptMismatchError("snapshot timeline record carries " +
                                std::to_string(segs) + " segments (max " +
                                std::to_string(kMaxSegs) + ")");
    _nSegs = static_cast<std::size_t>(segs);
    for (std::size_t i = 0; i < _nSegs; ++i) {
        _segs[i].start = in.u64();
        _segs[i].end = in.u64();
        _segs[i].stage = loadStageId(in);
    }
    for (std::size_t i = 0; i < kStageIdCount; ++i)
        _totals[i] = in.u64();
}

TimelinePool::TimelinePool(std::size_t capacity)
    : _records(capacity)
{
    _free.reserve(capacity);
    // Lowest index on top of the stack, so acquisition order is
    // deterministic and snapshot-stable.
    for (std::size_t i = capacity; i > 0; --i)
        _free.push_back(static_cast<std::uint32_t>(i - 1));
}

std::uint32_t
TimelinePool::acquire()
{
    SB_ASSERT(!_free.empty(),
              "timeline pool exhausted (capacity %zu) — in-flight "
              "requests exceeded the admission-queue bound",
              _records.size());
    const std::uint32_t slot = _free.back();
    _free.pop_back();
    return slot;
}

void
TimelinePool::release(std::uint32_t slot)
{
    SB_ASSERT(slot < _records.size(), "bad timeline slot %u", slot);
    _free.push_back(slot);
}

void
StageAccumulator::addCompletion(const TimelineRecord &rec)
{
    for (std::size_t i = 0; i < kStageIdCount; ++i) {
        const Cycles t = rec.total(static_cast<StageId>(i));
        if (t != 0)
            _samples[i].push_back(t);
    }
}

std::array<StageCut, kStageIdCount>
StageAccumulator::finalize() const
{
    std::array<StageCut, kStageIdCount> cuts;
    for (std::size_t i = 0; i < kStageIdCount; ++i)
        cuts[i] = cutOf(_samples[i]);
    return cuts;
}

void
StageAccumulator::saveState(ckpt::Serializer &out) const
{
    for (const std::vector<Cycles> &s : _samples)
        out.vecU64(s);
}

void
StageAccumulator::loadState(ckpt::Deserializer &in)
{
    for (std::vector<Cycles> &s : _samples)
        s = in.vecU64();
}

ExemplarReservoir::ExemplarReservoir(PrfKey key, std::size_t perBin,
                                     std::size_t bins)
    : _key(key), _perBin(perBin == 0 ? 1 : perBin), _bins(bins)
{
}

void
ExemplarReservoir::offer(const TimelineRecord &rec, Cycles latency,
                         bool usedShadow, std::uint32_t attempts)
{
    const std::uint32_t bin = static_cast<std::uint32_t>(
        HistogramSink::log2BinOf(latency, _bins));
    Exemplar e;
    e.priority = prf64(_key, rec.seq(), 0);
    e.seq = rec.seq();
    e.client = rec.client();
    e.addr = rec.addr();
    e.arrival = rec.arrival();
    e.latency = latency;
    e.attempts = attempts;
    e.usedShadow = usedShadow;
    e.truncated = rec.truncated();
    e.segs.reserve(rec.segCount());
    for (std::size_t i = 0; i < rec.segCount(); ++i)
        e.segs.push_back(rec.seg(i));

    std::vector<Exemplar> &kept = _kept[bin];
    auto at = std::upper_bound(
        kept.begin(), kept.end(), e,
        [](const Exemplar &a, const Exemplar &b) {
            return a.priority != b.priority
                       ? a.priority < b.priority
                       : a.seq < b.seq;
        });
    kept.insert(at, std::move(e));
    if (kept.size() > _perBin)
        kept.pop_back();
}

std::size_t
ExemplarReservoir::size() const
{
    std::size_t n = 0;
    for (const auto &kv : _kept)
        n += kv.second.size();
    return n;
}

std::string
ExemplarReservoir::renderJsonl() const
{
    std::string out;
    for (const auto &kv : _kept) {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        HistogramSink::log2BinBounds(kv.first, lo, hi);
        for (const Exemplar &e : kv.second) {
            out += "{\"bin\": " + std::to_string(kv.first) +
                   ", \"bin_lo\": " + std::to_string(lo) +
                   ", \"bin_hi\": " + std::to_string(hi) +
                   ", \"seq\": " + std::to_string(e.seq) +
                   ", \"client\": " + std::to_string(e.client) +
                   ", \"addr\": " + std::to_string(e.addr) +
                   ", \"arrival\": " + std::to_string(e.arrival) +
                   ", \"latency\": " + std::to_string(e.latency) +
                   ", \"attempts\": " + std::to_string(e.attempts) +
                   ", \"shadow\": " +
                   (e.usedShadow ? "true" : "false") +
                   ", \"truncated_segs\": " +
                   std::to_string(e.truncated) + ", \"stages\": [";
            for (std::size_t i = 0; i < e.segs.size(); ++i) {
                if (i)
                    out += ", ";
                out += "{\"stage\": \"";
                out += kStageNames[e.segs[i].stage];
                out += "\", \"start\": " +
                       std::to_string(e.segs[i].start) +
                       ", \"end\": " +
                       std::to_string(e.segs[i].end) + "}";
            }
            out += "]}\n";
        }
    }
    return out;
}

void
ExemplarReservoir::saveState(ckpt::Serializer &out) const
{
    out.u64(_kept.size());
    for (const auto &kv : _kept) {
        out.u32(kv.first);
        out.u64(kv.second.size());
        for (const Exemplar &e : kv.second) {
            out.u64(e.priority);
            out.u64(e.seq);
            out.u64(e.client);
            out.u64(e.addr);
            out.u64(e.arrival);
            out.u64(e.latency);
            out.u32(e.attempts);
            out.u8(e.usedShadow ? 1 : 0);
            out.u32(e.truncated);
            out.u64(e.segs.size());
            for (const StageSeg &seg : e.segs) {
                out.u64(seg.start);
                out.u64(seg.end);
                out.u8(seg.stage);
            }
        }
    }
}

void
ExemplarReservoir::loadState(ckpt::Deserializer &in)
{
    _kept.clear();
    const std::uint64_t bins = in.u64();
    for (std::uint64_t b = 0; b < bins; ++b) {
        const std::uint32_t bin = in.u32();
        const std::uint64_t n = in.u64();
        std::vector<Exemplar> kept;
        kept.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            Exemplar e;
            e.priority = in.u64();
            e.seq = in.u64();
            e.client = in.u64();
            e.addr = in.u64();
            e.arrival = in.u64();
            e.latency = in.u64();
            e.attempts = in.u32();
            e.usedShadow = in.u8() != 0;
            e.truncated = in.u32();
            const std::uint64_t segs = in.u64();
            e.segs.reserve(segs);
            for (std::uint64_t s = 0; s < segs; ++s) {
                StageSeg seg;
                seg.start = in.u64();
                seg.end = in.u64();
                seg.stage = loadStageId(in);
                e.segs.push_back(seg);
            }
            kept.push_back(std::move(e));
        }
        _kept.emplace(bin, std::move(kept));
    }
}

} // namespace obs
} // namespace sboram
