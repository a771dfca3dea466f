/**
 * @file
 * Lightweight statistics primitives: scalar accumulators, histograms
 * and the mean helpers the evaluation section relies on (arithmetic
 * and geometric means across workloads).
 */

#ifndef SBORAM_COMMON_STATS_HH
#define SBORAM_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace sboram {

/**
 * Running scalar statistic: count, sum, min, max, mean, variance.
 *
 * Variance uses Welford's online update (mean + centered M2) rather
 * than the sum-of-squares identity E[x^2] - E[x]^2, which loses all
 * significant digits when the mean dwarfs the spread (e.g. cycle
 * timestamps around 1e9 with unit jitter cancel to garbage or go
 * negative in doubles).
 */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++_n;
        // sblint:allow-next-line(float-accum): samples arrive in deterministic single-thread order per run; accumulation order is fixed
        _sum += v;
        const double delta = v - _mean;
        // sblint:allow-next-line(float-accum): Welford update; same fixed sample order as _sum
        _mean += delta / static_cast<double>(_n);
        // sblint:allow-next-line(float-accum): Welford update; same fixed sample order as _sum
        _m2 += delta * (v - _mean);
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }

    std::uint64_t count() const { return _n; }
    double sum() const { return _sum; }
    double mean() const { return _n ? _mean : 0.0; }
    double min() const { return _n ? _min : 0.0; }
    double max() const { return _n ? _max : 0.0; }

    /** Population variance (divide by n, matching the old contract). */
    double
    variance() const
    {
        if (_n < 2)
            return 0.0;
        return _m2 / static_cast<double>(_n);
    }

    void
    reset()
    {
        _n = 0;
        _sum = _mean = _m2 = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t _n = 0;
    double _sum = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Fixed-bin histogram over [0, bins*width) with an overflow bin. */
class Histogram
{
  public:
    Histogram(std::size_t bins, double width)
        : _width(width), _counts(bins + 1, 0) {}

    void
    sample(double v)
    {
        std::size_t bin = v < 0 ? 0
            : static_cast<std::size_t>(v / _width);
        if (bin >= _counts.size() - 1)
            bin = _counts.size() - 1;
        ++_counts[bin];
        _acc.sample(v);
    }

    const std::vector<std::uint64_t> &counts() const { return _counts; }
    const Accumulator &summary() const { return _acc; }

  private:
    double _width;
    std::vector<std::uint64_t> _counts;
    Accumulator _acc;
};

/** Geometric mean of a vector of strictly positive values. */
double gmean(const std::vector<double> &values);

/** Arithmetic mean. */
double amean(const std::vector<double> &values);

} // namespace sboram

#endif // SBORAM_COMMON_STATS_HH
