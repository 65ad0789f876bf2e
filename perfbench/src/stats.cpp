#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // p * n / 100 in exact integer steps where possible: 99 * 1000 / 100 must
  // give rank 990, not 991 from a rounding error in 0.99 * 1000.
  const double exact = p * static_cast<double>(n) / 100.0;
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - percentile_rank(n, p) >= kMinTailSamples;
}

std::size_t samples_needed(double p) {
  std::size_t n = 1;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = percentile_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
