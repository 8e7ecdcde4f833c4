// Latency summaries for the end-to-end benchmark: the median, and the highest
// percentile of a fixed ladder that still has at least kMinBeyond samples
// beyond it, with the sample count. Percentiles use the nearest-rank rule on
// the sorted samples: the p-th percentile of n samples is the value at rank
// ceil(p/100 * n), so n - ceil(p/100 * n) samples lie beyond it.
#ifndef E2EBENCH_PERCENTILES_H_
#define E2EBENCH_PERCENTILES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

inline constexpr size_t kMinBeyond = 10;
// A tail needs this many samples before it is reported at all; below it the
// median stands alone.
inline constexpr size_t kMinTailSamples = 40;

// Rank (1-based) of the p-th percentile among n samples.
inline size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Samples strictly after the p-th percentile's rank.
inline size_t SamplesBeyond(size_t n, double p) { return n == 0 ? 0 : n - NearestRank(n, p); }

// True when the p-th percentile of n samples has at least kMinBeyond samples
// beyond it (and the sample is large enough to speak of a tail).
inline bool SupportsPercentile(size_t n, double p) {
  return n >= kMinTailSamples && SamplesBeyond(n, p) >= kMinBeyond;
}

// Percentile of already-sorted samples (nearest rank); 0 for no samples.
inline double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[NearestRank(sorted.size(), p) - 1];
}

struct Summary {
  size_t count = 0;
  double p50 = 0;
  // Highest ladder percentile with kMinBeyond samples beyond it; 0 (and
  // tail_value 0) when the sample is too small for any tail.
  double tail_percentile = 0;
  double tail_value = 0;
  size_t tail_beyond = 0;
};

inline constexpr double kTailLadder[] = {99.99, 99.9, 99.0, 90.0};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileOfSorted(samples, 50);
  for (double p : kTailLadder) {
    if (SupportsPercentile(samples.size(), p)) {
      s.tail_percentile = p;
      s.tail_value = PercentileOfSorted(samples, p);
      s.tail_beyond = SamplesBeyond(samples.size(), p);
      break;
    }
  }
  return s;
}

}  // namespace e2ebench

#endif  // E2EBENCH_PERCENTILES_H_
