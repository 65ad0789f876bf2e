// Percentiles under the reporting rule the benchmark applies to every
// latency it prints: a percentile is only reported when at least
// kMinTailSamples samples lie beyond it, so p99 needs 1000 samples and p95
// needs 200. With fewer, the "percentile" is one or two outliers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of the p-th percentile among n sorted samples:
/// the smallest k with k >= p/100 * n.
std::size_t percentile_rank(std::size_t n, double p);

/// True when at least kMinTailSamples of n samples lie beyond the p-th
/// percentile (n - percentile_rank(n, p) >= kMinTailSamples).
bool percentile_supported(std::size_t n, double p);

/// Smallest n for which percentile_supported(n, p) holds.
std::size_t samples_needed(double p);

/// Nearest-rank p-th percentile of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

}  // namespace perfbench
