// Checks the percentile helper against hand-computed distributions. Exits
// non-zero on the first mismatch; run.py runs it before every benchmark run.
#include <cstdio>
#include <vector>

#include "percentiles.h"

using e2ebench::Summarize;
using e2ebench::Summary;
using e2ebench::SupportsPercentile;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "percentiles_test: FAILED %s\n", what);
    failures++;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // reversed: Summarize must sort
    v.push_back(i);
  }
  return v;
}

}  // namespace

int main() {
  // 1..1000: median at rank 500; p99 at rank 990 leaves exactly 10 beyond,
  // p99.9 (rank 999) only 1, so p99 is the highest supported tail.
  Summary s = Summarize(Range(1000));
  Expect(s.count == 1000, "count of 1..1000");
  Expect(s.p50 == 500, "median of 1..1000");
  Expect(s.tail_percentile == 99.0, "tail percentile of 1..1000");
  Expect(s.tail_value == 990, "p99 of 1..1000");
  Expect(s.tail_beyond == 10, "samples beyond p99 of 1..1000");

  // 1..999: p99 sits at rank ceil(989.01) = 990 with 9 beyond, too few;
  // p90 at rank ceil(899.1) = 900 with 99 beyond.
  s = Summarize(Range(999));
  Expect(!SupportsPercentile(999, 99.0), "p99 unsupported at n=999");
  Expect(s.tail_percentile == 90.0, "tail percentile of 1..999");
  Expect(s.tail_value == 900, "p90 of 1..999");
  Expect(s.tail_beyond == 99, "samples beyond p90 of 1..999");

  // 100000 samples: p99.99 (rank 99990) has exactly 10 beyond.
  s = Summarize(Range(100000));
  Expect(s.tail_percentile == 99.99, "tail percentile of 1..100000");
  Expect(s.tail_value == 99990, "p99.99 of 1..100000");

  // A skewed distribution: 950 samples of 10 and 50 of 1000. The median is
  // 10; p99 (rank 990) falls among the 1000s.
  std::vector<double> skewed(950, 10.0);
  skewed.insert(skewed.end(), 50, 1000.0);
  s = Summarize(skewed);
  Expect(s.p50 == 10, "median of skewed");
  Expect(s.tail_percentile == 99.0, "tail percentile of skewed");
  Expect(s.tail_value == 1000, "p99 of skewed");

  // Fewer than 40 samples: median only.
  s = Summarize(Range(39));
  Expect(s.p50 == 20, "median of 1..39");
  Expect(s.tail_percentile == 0 && s.tail_value == 0, "no tail below 40 samples");

  // Empty input.
  s = Summarize({});
  Expect(s.count == 0 && s.p50 == 0, "empty summary");

  if (failures != 0) {
    return 1;
  }
  printf("percentiles_test: ok\n");
  return 0;
}
