#ifndef DEEPSD_FEATURE_FEATURE_ASSEMBLER_H_
#define DEEPSD_FEATURE_FEATURE_ASSEMBLER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "feature/vectors.h"

namespace deepsd {
namespace feature {

/// Feature-extraction parameters.
struct FeatureConfig {
  /// Look-back window L in minutes (paper fixes L = 20). Historical
  /// vectors are available at every minute, on the paper's item grid or
  /// off it, at the same cost.
  int window = 20;
  /// If true, count features are log1p-compressed. Default false (raw
  /// counts, as in the paper): compression flattens exactly the large-gap
  /// regimes that dominate RMSE — measured on the simulator it costs the
  /// basic model ~29% RMSE. Baseline (flat) features apply the same
  /// setting either way, so the comparison stays like-for-like.
  ///
  /// Environment reals (temperature, PM2.5, road-segment counts) are
  /// always standardized with reference-period statistics regardless of
  /// this flag: they are auxiliary context with no linear relation to the
  /// target, and at raw scale (PM2.5 ~100) they drown the environment
  /// blocks in gradient noise, while un-centered small values barely move
  /// the zero-initialized residual branches.
  bool normalize = false;
  /// Width of a time-of-day bin when one-hot encoding TimeID for linear
  /// baselines (1440 raw slots → 1440/time_bin_minutes bins).
  int time_bin_minutes = 10;
};

/// Inputs of the DeepSD network for one prediction item. Basic model uses
/// ids + v_sd + environment; the advanced model additionally consumes the
/// last-call / waiting-time vectors and the per-day-of-week historical
/// vectors (from which the network forms empirical vectors E = Σ p(w)·H(w)).
struct ModelInput {
  int area_id = 0;
  int time_id = 0;
  int week_id = 0;

  std::vector<float> v_sd;  ///< 2L real-time supply-demand vector.

  // Advanced-only fields; empty vectors for basic items.
  std::vector<float> h_sd;    ///< 7×2L historical sd vectors at t (w-major).
  std::vector<float> h_sd10;  ///< 7×2L historical sd vectors at t+10.
  std::vector<float> v_lc;    ///< 2L real-time last-call vector.
  std::vector<float> h_lc;
  std::vector<float> h_lc10;
  std::vector<float> v_wt;  ///< 2L real-time waiting-time vector.
  std::vector<float> h_wt;
  std::vector<float> h_wt10;

  std::vector<int> weather_types;    ///< L categorical weather-type ids.
  std::vector<float> weather_reals;  ///< 2L: temperatures then pm2.5.
  std::vector<float> v_tc;           ///< 4L traffic condition vector.

  float target_gap = 0;
};

/// Assembles model and baseline features from an OrderDataset.
///
/// Historical ("empirical") vectors are averaged over a fixed reference
/// period [ref_day_begin, ref_day_end) — the training days — rather than the
/// paper's "all days prior to d", with the item's own day excluded from its
/// average to avoid leaking the target window. See DESIGN.md §2 for why this
/// substitution is behaviour-preserving.
///
/// Construction precomputes per-(area, weekday) mean minute-curves for the
/// supply-demand signal, so its history is an O(L) lookup. Last-call and
/// waiting-time history has no table: History() rebuilds both from one
/// episode scan per reference day, at any minute, into caller-owned
/// storage. Offline assembly (AssembleAdvanced, AssembleFlat) and live
/// serving share that one pass.
class FeatureAssembler {
 public:
  FeatureAssembler(const data::OrderDataset* dataset,
                   const FeatureConfig& config, int ref_day_begin,
                   int ref_day_end);

  const FeatureConfig& config() const { return config_; }
  const data::OrderDataset& dataset() const { return *dataset_; }

  /// Features for the basic DeepSD model (ids, V_sd, environment).
  ModelInput AssembleBasic(const data::PredictionItem& item) const;

  /// Features for the advanced DeepSD model (adds last-call, waiting-time
  /// and all historical vectors).
  ModelInput AssembleAdvanced(const data::PredictionItem& item) const;

  /// Flat feature vector for the non-deep baselines, matching the feature
  /// list of paper Sec VI-C. With `onehot_categoricals` the area / binned
  /// time / weekday ids are expanded one-hot (for LASSO); otherwise they are
  /// included as raw ordinals (for the tree models).
  std::vector<float> AssembleFlat(const data::PredictionItem& item,
                                  bool onehot_categoricals) const;

  /// Dimensionality of AssembleFlat output.
  int FlatDim(bool onehot_categoricals) const;
  /// Column names of AssembleFlat output (debugging / feature importances).
  std::vector<std::string> FlatFeatureNames(bool onehot_categoricals) const;

  /// Historical per-day-of-week vector H^(w),t for the supply-demand signal
  /// (un-normalized counts), exposed for tests. Minutes at or past the end
  /// of the day (t + 10 near midnight) count 0, as in SupplyDemandVector.
  std::vector<float> HistoricalSd(int area, int week_id, int t) const;

  /// History of the three signals at (area, t), written in place: each
  /// non-null pointer of `sd`, `lc`, `wt` receives that signal's seven
  /// per-weekday raw-count vectors (w-major, 7×2L floats). A `day` inside
  /// the reference period is left out of its weekday's average (so an item
  /// never sees its own target window); any other day, such as -1 for live
  /// serving, gets the plain average.
  ///
  /// Last-call and waiting-time come from one episode scan per reference
  /// day, summed in ascending day order and divided by the weekday's day
  /// count. Allocation-free once the calling thread's scratch has grown.
  void History(int area, int day, int t, float* sd, float* lc,
               float* wt) const;

  /// Applies this assembler's count normalization in place to `n` counts
  /// (identity when config().normalize is false) — for callers assembling
  /// live features.
  void NormalizeCounts(float* counts, size_t n) const;

  /// Reference-period standardization statistics of the environment reals,
  /// shared with the live predictor so offline and online features agree.
  struct EnvStats {
    float temp_mean = 0, temp_std = 1;
    float pm_mean = 0, pm_std = 1;
    float tc_mean[data::kCongestionLevels] = {0, 0, 0, 0};
    float tc_std[data::kCongestionLevels] = {1, 1, 1, 1};
  };
  const EnvStats& env_stats() const { return env_stats_; }

  float NormTemp(float v) const {
    return (v - env_stats_.temp_mean) / env_stats_.temp_std;
  }
  float NormPm(float v) const {
    return (v - env_stats_.pm_mean) / env_stats_.pm_std;
  }
  float NormTraffic(int level, float v) const {
    return (v - env_stats_.tc_mean[level]) / env_stats_.tc_std[level];
  }
  /// Count of reference days with the given weekday.
  int RefDayCount(int week_id) const {
    return ref_day_count_[static_cast<size_t>(week_id)];
  }

 private:
  /// HistoricalSd body: the 2L mean counts of (area, week_id) before t.
  void SdMean(int area, int week_id, int t, float* out) const;
  float NormCount(float v) const;

  const data::OrderDataset* dataset_;
  FeatureConfig config_;
  int ref_day_begin_;
  int ref_day_end_;

  std::vector<int> ref_day_count_;  // per weekday
  EnvStats env_stats_;

  // Mean per-minute valid/invalid counts per (area, weekday):
  // index ((area*7 + w) * 1440 + minute) * 2 + {0=valid,1=invalid}.
  std::vector<float> sd_minute_mean_;
};

}  // namespace feature
}  // namespace deepsd

#endif  // DEEPSD_FEATURE_FEATURE_ASSEMBLER_H_
