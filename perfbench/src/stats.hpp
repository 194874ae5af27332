// stats.hpp — sample summaries for the benchmark's reports.
#pragma once

#include <cstdint>
#include <vector>

namespace pb {

/// Nearest-rank quantile of `values` (unsorted; copied). 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One latency distribution as the reports print it.
struct Summary {
  std::int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  /// Samples strictly above p99 — the guide's "at least ten beyond the
  /// highest reported percentile" is checked against this.
  std::int64_t beyond_p99 = 0;
};
Summary summarize(const std::vector<double>& values);

}  // namespace pb
