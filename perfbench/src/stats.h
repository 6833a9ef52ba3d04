// Summary statistics the benchmark reports. Kept apart from main.cc so
// perfbench_stats_test can check them against hand-computed values.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of `samples` (need not be sorted): the smallest
// sample with at least a fraction `q` of the samples at or below it.
// Requires a non-empty input and 0 < q <= 1.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

// Number of samples strictly after the nearest-rank q-quantile's rank,
// i.e. how many samples lie beyond the reported percentile.
size_t SamplesBeyond(size_t n, double q);

// Smallest sample count for which the q-quantile has at least `beyond`
// samples after it (the benchmark's rule: ten samples beyond p99 needs
// 1,000 requests).
size_t MinSamplesForTail(double q, size_t beyond);

// ROC AUC by the Mann-Whitney rank sum: tied scores share their mid-rank,
// so a tie between a positive and a negative counts one half. Labels are
// positive when > 0.5. Returns 0.5 when either class is empty.
double RankSumAuc(const std::vector<double>& scores,
                  const std::vector<float>& labels);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
