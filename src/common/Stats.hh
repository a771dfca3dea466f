/**
 * @file
 * The mean helpers the evaluation section relies on (arithmetic and
 * geometric means across workloads).
 */

#ifndef SBORAM_COMMON_STATS_HH
#define SBORAM_COMMON_STATS_HH

#include <vector>

namespace sboram {

/** Geometric mean of a vector of strictly positive values. */
double gmean(const std::vector<double> &values);

/** Arithmetic mean. */
double amean(const std::vector<double> &values);

} // namespace sboram

#endif // SBORAM_COMMON_STATS_HH
