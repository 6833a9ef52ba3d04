#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Quantile needs samples and 0 < q <= 1");
  }
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("Median of nothing");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

size_t MinSamplesForTail(double q, size_t beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

double RankSumAuc(const std::vector<double>& scores,
                  const std::vector<float>& labels) {
  if (scores.size() != labels.size()) {
    throw std::invalid_argument("RankSumAuc: scores/labels size mismatch");
  }
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  size_t positives = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    // Ranks i+1 .. j share their mean.
    const double mid_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0.5f) {
        positive_rank_sum += mid_rank;
        ++positives;
      }
    }
    i = j;
  }
  const size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double p = static_cast<double>(positives);
  return (positive_rank_sum - p * (p + 1.0) / 2.0) /
         (p * static_cast<double>(negatives));
}

}  // namespace perfbench
