#include "Metrics.hh"

#include <cstdio>

namespace sboram {
namespace obs {

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Counter &
MetricRegistry::counter(const char *name)
{
    for (auto &c : _counters)
        if (c.name == name)
            return c.item;
    _counters.push_back({name, Counter{}});
    return _counters.back().item;
}

void
MetricRegistry::gauge(const char *name, std::function<double()> fn)
{
    for (auto &g : _gauges) {
        if (g.name == name) {
            g.item = std::move(fn);
            return;
        }
    }
    _gauges.push_back({name, std::move(fn)});
}

HistogramSink &
MetricRegistry::histogramLog2(const char *name, std::size_t bins)
{
    for (auto &h : _histograms)
        if (h.name == name)
            return h.item;
    _histograms.push_back({name, HistogramSink(bins)});
    return _histograms.back().item;
}

std::vector<double>
MetricRegistry::sampleValues() const
{
    std::vector<double> values;
    values.reserve(_counters.size() + _gauges.size());
    for (const auto &c : _counters)
        values.push_back(static_cast<double>(c.item.value));
    for (const auto &g : _gauges)
        values.push_back(g.item ? g.item() : 0.0);
    return values;
}

std::vector<std::string>
MetricRegistry::sampleNames() const
{
    std::vector<std::string> names;
    names.reserve(_counters.size() + _gauges.size());
    for (const auto &c : _counters)
        names.push_back(c.name);
    for (const auto &g : _gauges)
        names.push_back(g.name);
    return names;
}

std::vector<MetricRegistry::NamedHistogram>
MetricRegistry::histograms() const
{
    std::vector<NamedHistogram> out;
    out.reserve(_histograms.size());
    for (const auto &h : _histograms)
        out.push_back({h.name, &h.item});
    return out;
}

void
MetricRegistry::saveState(ckpt::Serializer &out) const
{
    out.u64(_counters.size());
    for (const auto &c : _counters) {
        out.str(c.name);
        out.u64(c.item.value);
    }
    out.u64(_histograms.size());
    for (const auto &h : _histograms) {
        out.str(h.name);
        h.item.saveState(out);
    }
}

void
MetricRegistry::loadState(ckpt::Deserializer &in)
{
    // Counters/histograms were registered in the same deterministic
    // order by the restored run's own wiring; names are matched so a
    // registration-order drift is caught rather than silently
    // misattributed.
    const std::uint64_t counters = in.u64();
    for (std::uint64_t i = 0; i < counters; ++i) {
        const std::string name = in.str();
        const std::uint64_t value = in.u64();
        for (auto &c : _counters) {
            if (c.name == name) {
                c.item.value = value;
                break;
            }
        }
    }
    const std::uint64_t histograms = in.u64();
    for (std::uint64_t i = 0; i < histograms; ++i) {
        const std::string name = in.str();
        HistogramSink scratch(1);
        scratch.loadState(in);
        for (auto &h : _histograms) {
            if (h.name == name) {
                h.item = scratch;
                break;
            }
        }
    }
}

void
IntervalSampler::takeSample(std::uint64_t accessesDone,
                            std::uint64_t cycles)
{
    Row row;
    row.access = accessesDone;
    row.cycles = cycles;
    row.values = _registry.sampleValues();
    _rows.push_back(std::move(row));
    _lastSampleAt = accessesDone;
}

std::string
IntervalSampler::renderJsonl() const
{
    const std::vector<std::string> names = _registry.sampleNames();
    std::string out;
    for (const Row &row : _rows) {
        out += "{\"access\": " + std::to_string(row.access) +
               ", \"cycles\": " + std::to_string(row.cycles);
        for (std::size_t i = 0;
             i < row.values.size() && i < names.size(); ++i) {
            out += ", \"" + names[i] +
                   "\": " + formatDouble(row.values[i]);
        }
        out += "}\n";
    }
    for (const auto &h : _registry.histograms()) {
        // Constant "kind"/"bin_width" keys keep the footer schema
        // stable for artifact readers.
        out += "{\"histogram\": \"" + h.name +
               "\", \"kind\": \"log2\", \"bin_width\": 1"
               ", \"samples\": " + std::to_string(h.sink->samples()) +
               ", \"counts\": [";
        const auto &counts = h.sink->counts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i)
                out += ", ";
            out += std::to_string(counts[i]);
        }
        out += "]}\n";
    }
    return out;
}

void
IntervalSampler::saveState(ckpt::Serializer &out) const
{
    out.u64(_lastSampleAt);
    out.u64(_rows.size());
    for (const Row &row : _rows) {
        out.u64(row.access);
        out.u64(row.cycles);
        out.u64(row.values.size());
        for (double v : row.values)
            out.f64(v);
    }
}

void
IntervalSampler::loadState(ckpt::Deserializer &in)
{
    _lastSampleAt = in.u64();
    _rows.clear();
    const std::uint64_t count = in.u64();
    _rows.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Row row;
        row.access = in.u64();
        row.cycles = in.u64();
        const std::uint64_t n = in.u64();
        row.values.reserve(n);
        for (std::uint64_t j = 0; j < n; ++j)
            row.values.push_back(in.f64());
        _rows.push_back(std::move(row));
    }
}

} // namespace obs
} // namespace sboram
