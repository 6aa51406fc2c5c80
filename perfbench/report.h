// Sample statistics and the benchmark's output: human-readable metric
// lines, then one JSON result line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// The highest of the percentiles 50/90/95/99/99.9 that has at least ten
/// samples beyond it (a fixed ladder, so the same sample size always names
/// the same percentile).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"; "" for plain counts.
  std::string note;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Prints one "metric" line per entry, prefixed with `section`.
void PrintMetrics(const std::string& section,
                  const std::vector<Metric>& metrics);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
