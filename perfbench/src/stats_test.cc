// Unit tests for the benchmark's own statistics (stats.h). Exits non-zero
// on the first failed expectation; run by `python3 perfbench/run.py
// --smoke`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: with 1..100, p50 is 50 and p99 is 99; order-free.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(Quantile(v, 0.50) == 50.0, "p50 of 1..100 is 50");
  Expect(Quantile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(Quantile(v, 1.0) == 100.0, "p100 is the maximum");
  Expect(Quantile({7.0}, 0.99) == 7.0, "single sample");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

  // Ten samples beyond p99 needs 1,000 samples, and 999 gives only nine.
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(SamplesBeyond(100, 0.99) == 1, "100 samples: 1 beyond p99");
  Expect(MinSamplesForTail(0.99, 10) == 1000, "p99 needs 1000 for 10");
  Expect(MinSamplesForTail(0.50, 10) == 20, "p50 needs 20 for 10");

  // AUC: perfect, inverted, all-tied and a hand-counted mixed case.
  Expect(Near(RankSumAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0),
         "perfect separation");
  Expect(Near(RankSumAuc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0),
         "inverted separation");
  Expect(Near(RankSumAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5),
         "all tied is one half");
  // Positives 0.35 and 0.8; negatives 0.1, 0.4, 0.35. Pairs won: 0.8 beats
  // all three (3), 0.35 beats 0.1 (1) and ties 0.35 (0.5): 4.5 / 6.
  Expect(Near(RankSumAuc({0.35, 0.8, 0.1, 0.4, 0.35}, {1, 1, 0, 0, 0}),
              4.5 / 6.0),
         "mixed case with a tie");
  Expect(Near(RankSumAuc({0.3, 0.6}, {1, 1}), 0.5), "one class only");

  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
