#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace pb {

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, q);
}

Summary summarize(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  Summary s;
  s.n = static_cast<std::int64_t>(sorted.size());
  if (sorted.empty()) return s;
  s.p50 = sorted_quantile(sorted, 0.50);
  s.p99 = sorted_quantile(sorted, 0.99);
  s.p999 = sorted_quantile(sorted, 0.999);
  s.max = sorted.back();
  s.beyond_p99 = static_cast<std::int64_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), s.p99));
  return s;
}

}  // namespace pb
