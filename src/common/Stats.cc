#include "Stats.hh"

#include <cmath>

#include "Logging.hh"

namespace sboram {

double
gmean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        SB_ASSERT(v > 0.0, "gmean over non-positive value %f", v);
        // sblint:allow-next-line(float-accum): accumulates in the caller-supplied vector order, which is deterministic
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        // sblint:allow-next-line(float-accum): accumulates in the caller-supplied vector order, which is deterministic
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace sboram
