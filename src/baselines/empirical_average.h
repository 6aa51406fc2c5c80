#ifndef DEEPSD_BASELINES_EMPIRICAL_AVERAGE_H_
#define DEEPSD_BASELINES_EMPIRICAL_AVERAGE_H_

#include <limits>
#include <vector>

#include "data/types.h"

namespace deepsd {
namespace baselines {

/// The paper's "Empirical Average" baseline (Sec VI-C): for a query
/// (area, t) predict the mean gap of the same (area, t) over the training
/// days. Falls back to the area mean, then the global mean, for unseen
/// timeslots. Also serving's tier-3 answer (serving::OnlinePredictor).
///
/// The baseline is a set of dense mean tables, NaN-padded where no
/// training sample exists. Fit() computes and owns them; a view
/// constructed over someone else's tables — the model store's "ea"
/// section (store/stored_model.h), zero-copy — is served by the same
/// Predict(). Move-only: a member-wise copy would point at the original's
/// tables.
class EmpiricalAverage {
 public:
  /// The fitted means. Each is static_cast<float>(sum / count) over the
  /// training gaps; NaN marks an entry with no training sample.
  struct Tables {
    int num_areas = 0;
    /// NaN when nothing was fitted (Predict then answers 0).
    float global_mean = std::numeric_limits<float>::quiet_NaN();
    /// [num_areas].
    const float* area_means = nullptr;
    /// Row-major [num_areas * kMinutesPerDay].
    const float* cell_means = nullptr;
  };

  EmpiricalAverage() = default;
  /// Serves `view` without copying it; the caller keeps its arrays alive
  /// and unchanged for the baseline's lifetime.
  explicit EmpiricalAverage(const Tables& view) : tables_(view) {}
  EmpiricalAverage(EmpiricalAverage&&) = default;
  EmpiricalAverage& operator=(EmpiricalAverage&&) = default;

  /// Replaces the tables with the means of `train_items`. The area count
  /// is one past the largest area seen. Items with a negative area, or a
  /// t outside [0, kMinutesPerDay) for the cell table, count only toward
  /// the coarser means.
  void Fit(const std::vector<data::PredictionItem>& train_items);

  /// Predicted gap for (area, minute-of-day t). Thread-safe. A t outside
  /// [0, kMinutesPerDay) falls back to the area mean.
  float Predict(int area, int t) const;
  std::vector<float> Predict(
      const std::vector<data::PredictionItem>& items) const;

  const Tables& tables() const { return tables_; }

 private:
  Tables tables_;
  /// Storage behind tables_ after Fit(); empty for a view.
  std::vector<float> area_means_;
  std::vector<float> cell_means_;
};

}  // namespace baselines
}  // namespace deepsd

#endif  // DEEPSD_BASELINES_EMPIRICAL_AVERAGE_H_
