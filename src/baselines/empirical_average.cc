#include "baselines/empirical_average.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace deepsd {
namespace baselines {

namespace {

/// static_cast<float>(sum / count) per entry, NaN where count is 0.
std::vector<float> Means(const std::vector<double>& sums,
                         const std::vector<int>& counts) {
  std::vector<float> means(sums.size(),
                           std::numeric_limits<float>::quiet_NaN());
  for (size_t i = 0; i < sums.size(); ++i) {
    if (counts[i] > 0) means[i] = static_cast<float>(sums[i] / counts[i]);
  }
  return means;
}

}  // namespace

void EmpiricalAverage::Fit(const std::vector<data::PredictionItem>& train_items) {
  int num_areas = 0;
  for (const data::PredictionItem& item : train_items) {
    num_areas = std::max(num_areas, item.area + 1);
  }
  const size_t cells = static_cast<size_t>(num_areas) * data::kMinutesPerDay;
  // The accumulators live only for this call; the tables keep the means.
  std::vector<double> cell_sums(cells, 0.0), area_sums(num_areas, 0.0);
  std::vector<int> cell_counts(cells, 0), area_counts(num_areas, 0);
  double global_sum = 0;
  int global_count = 0;
  for (const data::PredictionItem& item : train_items) {
    global_sum += item.gap;
    ++global_count;
    if (item.area < 0) continue;
    area_sums[item.area] += item.gap;
    ++area_counts[item.area];
    if (item.t < 0 || item.t >= data::kMinutesPerDay) continue;
    const size_t cell =
        static_cast<size_t>(item.area) * data::kMinutesPerDay + item.t;
    cell_sums[cell] += item.gap;
    ++cell_counts[cell];
  }
  area_means_ = Means(area_sums, area_counts);
  cell_means_ = Means(cell_sums, cell_counts);
  tables_.num_areas = num_areas;
  tables_.global_mean =
      global_count > 0 ? static_cast<float>(global_sum / global_count)
                       : std::numeric_limits<float>::quiet_NaN();
  tables_.area_means = area_means_.data();
  tables_.cell_means = cell_means_.data();
}

float EmpiricalAverage::Predict(int area, int t) const {
  // Cell mean, then area mean, then global mean, then 0; NaN marks an
  // absent entry.
  if (area >= 0 && area < tables_.num_areas) {
    if (t >= 0 && t < data::kMinutesPerDay) {
      const float cell = tables_.cell_means[static_cast<size_t>(area) *
                                                data::kMinutesPerDay +
                                            t];
      if (!std::isnan(cell)) return cell;
    }
    const float area_mean = tables_.area_means[area];
    if (!std::isnan(area_mean)) return area_mean;
  }
  return std::isnan(tables_.global_mean) ? 0.0f : tables_.global_mean;
}

std::vector<float> EmpiricalAverage::Predict(
    const std::vector<data::PredictionItem>& items) const {
  std::vector<float> out;
  out.reserve(items.size());
  for (const data::PredictionItem& item : items) {
    out.push_back(Predict(item.area, item.t));
  }
  return out;
}

}  // namespace baselines
}  // namespace deepsd
