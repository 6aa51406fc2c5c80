#include "feature/feature_assembler.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace feature {

namespace {
constexpr int kWeatherVocab = 10;
}

FeatureAssembler::FeatureAssembler(const data::OrderDataset* dataset,
                                   const FeatureConfig& config,
                                   int ref_day_begin, int ref_day_end)
    : dataset_(dataset),
      config_(config),
      ref_day_begin_(std::max(ref_day_begin, 0)),
      ref_day_end_(std::min(ref_day_end, dataset->num_days())) {
  DEEPSD_CHECK(config_.window > 0);
  DEEPSD_CHECK(ref_day_end_ > ref_day_begin_);

  const int num_areas = dataset_->num_areas();
  ref_day_count_.assign(data::kDaysPerWeek, 0);
  for (int d = ref_day_begin_; d < ref_day_end_; ++d) {
    ++ref_day_count_[static_cast<size_t>(dataset_->WeekId(d))];
  }

  // Table construction parallelizes over areas: each area writes only its
  // own slice of the table, and the per-area day-accumulation order is the
  // same as the serial loop, so the table is bit-identical for any thread
  // count (see docs/parallelism.md).
  util::ThreadPool& pool = util::ThreadPool::Global();

  // --- Supply-demand: mean per-minute curves per (area, weekday). ---
  sd_minute_mean_.assign(static_cast<size_t>(num_areas) * data::kDaysPerWeek *
                             data::kMinutesPerDay * 2,
                         0.0f);
  pool.ParallelFor(0, static_cast<size_t>(num_areas), 1,
                   [&](size_t a0, size_t a1) {
  for (int a = static_cast<int>(a0); a < static_cast<int>(a1); ++a) {
    for (int d = ref_day_begin_; d < ref_day_end_; ++d) {
      int w = dataset_->WeekId(d);
      size_t base = (static_cast<size_t>(a) * data::kDaysPerWeek + w) *
                    data::kMinutesPerDay * 2;
      for (int ts = 0; ts < data::kMinutesPerDay; ++ts) {
        sd_minute_mean_[base + 2 * static_cast<size_t>(ts)] +=
            static_cast<float>(dataset_->ValidCount(a, d, ts));
        sd_minute_mean_[base + 2 * static_cast<size_t>(ts) + 1] +=
            static_cast<float>(dataset_->InvalidCount(a, d, ts));
      }
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      int n = ref_day_count_[static_cast<size_t>(w)];
      if (n == 0) continue;
      size_t base = (static_cast<size_t>(a) * data::kDaysPerWeek + w) *
                    data::kMinutesPerDay * 2;
      for (size_t i = 0; i < static_cast<size_t>(data::kMinutesPerDay) * 2; ++i) {
        sd_minute_mean_[base + i] /= static_cast<float>(n);
      }
    }
  }
                   });

  // --- Environment-real standardization statistics over the reference
  // period (sampled every 10 minutes). ---
  {
    util::RunningStats temp, pm;
    util::RunningStats tc[data::kCongestionLevels];
    for (int d = ref_day_begin_; d < ref_day_end_; ++d) {
      for (int ts = 0; ts < data::kMinutesPerDay; ts += 10) {
        const data::WeatherRecord& w = dataset_->WeatherAt(d, ts);
        temp.Add(w.temperature);
        pm.Add(w.pm25);
        for (int a = 0; a < num_areas; ++a) {
          const data::TrafficRecord& t = dataset_->TrafficAt(a, d, ts);
          for (int level = 0; level < data::kCongestionLevels; ++level) {
            tc[level].Add(t.level_counts[level]);
          }
        }
      }
    }
    auto safe_std = [](const util::RunningStats& s) {
      double sd = s.stddev();
      return static_cast<float>(sd > 1e-6 ? sd : 1.0);
    };
    env_stats_.temp_mean = static_cast<float>(temp.mean());
    env_stats_.temp_std = safe_std(temp);
    env_stats_.pm_mean = static_cast<float>(pm.mean());
    env_stats_.pm_std = safe_std(pm);
    for (int level = 0; level < data::kCongestionLevels; ++level) {
      env_stats_.tc_mean[level] = static_cast<float>(tc[level].mean());
      env_stats_.tc_std[level] = safe_std(tc[level]);
    }
  }
}

void FeatureAssembler::SdMean(int area, int week_id, int t,
                              float* out) const {
  const int L = config_.window;
  const size_t base =
      (static_cast<size_t>(area) * data::kDaysPerWeek + week_id) *
      data::kMinutesPerDay * 2;
  for (int l = 1; l <= L; ++l) {
    const int ts = t - l;
    // Minutes before the day's start or at/after its end hold no orders.
    const bool in_day = ts >= 0 && ts < data::kMinutesPerDay;
    out[l - 1] =
        in_day ? sd_minute_mean_[base + 2 * static_cast<size_t>(ts)] : 0.0f;
    out[L + l - 1] =
        in_day ? sd_minute_mean_[base + 2 * static_cast<size_t>(ts) + 1]
               : 0.0f;
  }
}

std::vector<float> FeatureAssembler::HistoricalSd(int area, int week_id,
                                                  int t) const {
  std::vector<float> h(2 * static_cast<size_t>(config_.window));
  SdMean(area, week_id, t, h.data());
  return h;
}

void FeatureAssembler::History(int area, int day, int t, float* sd, float* lc,
                               float* wt) const {
  const int L = config_.window;
  const size_t dim = 2 * static_cast<size_t>(L);
  const size_t all = data::kDaysPerWeek * dim;

  // Own-day exclusion applies to a reference day whose weekday has another
  // reference day left to average. `own` holds that day's sd | lc | wt.
  int own_w = -1;
  if (day >= ref_day_begin_ && day < ref_day_end_ &&
      RefDayCount(dataset_->WeekId(day)) > 1) {
    own_w = dataset_->WeekId(day);
  }
  thread_local std::vector<float> own;
  if (own_w >= 0) own.assign(3 * dim, 0.0f);

  if (sd != nullptr) {
    // Touch all seven weekday curves before reading any, so their cache
    // misses overlap.
    const int first = std::clamp(t - L, 0, data::kMinutesPerDay - 1);
    const int last = std::clamp(t - 1, 0, data::kMinutesPerDay - 1);
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      const float* curve =
          sd_minute_mean_.data() +
          (static_cast<size_t>(area) * data::kDaysPerWeek + w) *
              data::kMinutesPerDay * 2;
      for (int ts = first; ts <= last; ts += 8) {
        __builtin_prefetch(curve + 2 * ts);
      }
      __builtin_prefetch(curve + 2 * last + 1);
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      SdMean(area, w, t, sd + static_cast<size_t>(w) * dim);
    }
    if (own_w >= 0) {
      for (int l = 1; l <= L; ++l) {
        const int ts = t - l;
        if (ts < 0) break;
        own[static_cast<size_t>(l - 1)] =
            static_cast<float>(dataset_->ValidCount(area, day, ts));
        own[static_cast<size_t>(L + l - 1)] =
            static_cast<float>(dataset_->InvalidCount(area, day, ts));
      }
    }
  }

  if (lc != nullptr || wt != nullptr) {
    if (lc != nullptr) std::fill(lc, lc + all, 0.0f);
    if (wt != nullptr) std::fill(wt, wt + all, 0.0f);
    // Every count is a whole number far below 2^24, so the per-weekday sums
    // are exact and equal the ascending-day sums of LastCallVector and
    // WaitingTimeVector whatever order the 1.0f increments arrive in.
    //
    // The days' order windows are located (and their orders touched)
    // first, so their cache misses overlap instead of each waiting on the
    // last.
    thread_local std::vector<std::span<const data::Order>> windows;
    windows.clear();
    for (int d = ref_day_begin_; d < ref_day_end_; ++d) {
      windows.push_back(dataset_->OrdersInRange(area, d, t - L, t));
      if (!windows.back().empty()) __builtin_prefetch(windows.back().data());
    }
    thread_local EpisodeScratch scratch;
    for (int d = ref_day_begin_; d < ref_day_end_; ++d) {
      const size_t off = static_cast<size_t>(dataset_->WeekId(d)) * dim;
      float* lc_w = lc != nullptr ? lc + off : nullptr;
      float* wt_w = wt != nullptr ? wt + off : nullptr;
      const std::span<const data::Order> orders =
          windows[static_cast<size_t>(d - ref_day_begin_)];
      if (d != day || own_w < 0) {
        AccumulateLastCallWaitingTime(orders, t, L, &scratch, lc_w, wt_w);
        continue;
      }
      float* own_lc = own.data() + dim;
      float* own_wt = own.data() + 2 * dim;
      AccumulateLastCallWaitingTime(orders, t, L, &scratch, own_lc, own_wt);
      for (size_t k = 0; k < dim; ++k) {
        if (lc_w != nullptr) lc_w[k] += own_lc[k];
        if (wt_w != nullptr) wt_w[k] += own_wt[k];
      }
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      const int n = RefDayCount(w);
      if (n == 0) continue;
      const size_t off = static_cast<size_t>(w) * dim;
      for (size_t k = 0; k < dim; ++k) {
        if (lc != nullptr) lc[off + k] /= static_cast<float>(n);
        if (wt != nullptr) wt[off + k] /= static_cast<float>(n);
      }
    }
  }

  if (own_w < 0) return;
  // Exclude the item's own day from its historical average so E never
  // contains the exact window being predicted from.
  const float n = static_cast<float>(RefDayCount(own_w));
  float* signals[3] = {sd, lc, wt};
  for (int kind = 0; kind < 3; ++kind) {
    if (signals[kind] == nullptr) continue;
    float* h = signals[kind] + static_cast<size_t>(own_w) * dim;
    const float* o = own.data() + static_cast<size_t>(kind) * dim;
    for (size_t k = 0; k < dim; ++k) {
      h[k] = (h[k] * n - o[k]) / (n - 1.0f);
    }
  }
}

void FeatureAssembler::NormalizeCounts(float* counts, size_t n) const {
  if (!config_.normalize) return;
  for (size_t i = 0; i < n; ++i) counts[i] = NormCount(counts[i]);
}

float FeatureAssembler::NormCount(float v) const {
  if (!config_.normalize) return v;
  return std::log1p(std::max(v, 0.0f));
}

ModelInput FeatureAssembler::AssembleBasic(
    const data::PredictionItem& item) const {
  static obs::Counter* assembled =
      obs::MetricsRegistry::Global().GetCounter("feature/assemble_basic");
  assembled->Inc();
  const int L = config_.window;
  ModelInput in;
  in.area_id = item.area;
  in.time_id = item.t;
  in.week_id = item.week_id;
  in.target_gap = item.gap;

  in.v_sd = SupplyDemandVector(*dataset_, item.area, item.day, item.t, L);
  NormalizeCounts(in.v_sd.data(), in.v_sd.size());

  in.weather_types.reserve(static_cast<size_t>(L));
  in.weather_reals.reserve(2 * static_cast<size_t>(L));
  std::vector<float> temps, pms;
  for (int l = 1; l <= L; ++l) {
    int ts = std::max(item.t - l, 0);
    const data::WeatherRecord& w = dataset_->WeatherAt(item.day, ts);
    in.weather_types.push_back(w.type);
    temps.push_back(NormTemp(w.temperature));
    pms.push_back(NormPm(w.pm25));
  }
  in.weather_reals.insert(in.weather_reals.end(), temps.begin(), temps.end());
  in.weather_reals.insert(in.weather_reals.end(), pms.begin(), pms.end());

  in.v_tc.reserve(4 * static_cast<size_t>(L));
  for (int l = 1; l <= L; ++l) {
    int ts = std::max(item.t - l, 0);
    const data::TrafficRecord& tr = dataset_->TrafficAt(item.area, item.day, ts);
    for (int level = 0; level < data::kCongestionLevels; ++level) {
      float c = static_cast<float>(tr.level_counts[level]);
      in.v_tc.push_back(NormTraffic(level, c));
    }
  }
  return in;
}

ModelInput FeatureAssembler::AssembleAdvanced(
    const data::PredictionItem& item) const {
  static obs::Counter* assembled =
      obs::MetricsRegistry::Global().GetCounter("feature/assemble_advanced");
  assembled->Inc();
  ModelInput in = AssembleBasic(item);
  const size_t dim = 2 * static_cast<size_t>(config_.window);
  const size_t all = data::kDaysPerWeek * dim;
  for (std::vector<float>* h : {&in.h_sd, &in.h_sd10, &in.h_lc, &in.h_lc10,
                                &in.h_wt, &in.h_wt10}) {
    h->resize(all);
  }
  in.v_lc.assign(dim, 0.0f);
  in.v_wt.assign(dim, 0.0f);
  thread_local EpisodeScratch scratch;
  AccumulateLastCallWaitingTime(
      dataset_->OrdersInRange(item.area, item.day, item.t - config_.window,
                              item.t),
      item.t, config_.window, &scratch, in.v_lc.data(), in.v_wt.data());
  History(item.area, item.day, item.t, in.h_sd.data(), in.h_lc.data(),
          in.h_wt.data());
  History(item.area, item.day, item.t + data::kGapWindow, in.h_sd10.data(),
          in.h_lc10.data(), in.h_wt10.data());
  for (std::vector<float>* v : {&in.h_sd, &in.h_sd10, &in.v_lc, &in.h_lc,
                                &in.h_lc10, &in.v_wt, &in.h_wt, &in.h_wt10}) {
    NormalizeCounts(v->data(), v->size());
  }
  return in;
}

int FeatureAssembler::FlatDim(bool onehot_categoricals) const {
  const int L = config_.window;
  int time_bins = data::kMinutesPerDay / config_.time_bin_minutes;
  int id_dims = onehot_categoricals
                    ? dataset_->num_areas() + time_bins + data::kDaysPerWeek
                    : 3;
  int per_signal = 2 * L + data::kDaysPerWeek * 2 * L;  // realtime + 7×hist
  return id_dims + 3 * per_signal + (kWeatherVocab + 2) + 4 * L;
}

std::vector<float> FeatureAssembler::AssembleFlat(
    const data::PredictionItem& item, bool onehot_categoricals) const {
  static obs::Counter* assembled =
      obs::MetricsRegistry::Global().GetCounter("feature/assemble_flat");
  assembled->Inc();
  const int L = config_.window;
  std::vector<float> out;
  out.reserve(static_cast<size_t>(FlatDim(onehot_categoricals)));

  if (onehot_categoricals) {
    int time_bins = data::kMinutesPerDay / config_.time_bin_minutes;
    std::vector<float> ids(
        static_cast<size_t>(dataset_->num_areas() + time_bins +
                            data::kDaysPerWeek),
        0.0f);
    ids[static_cast<size_t>(item.area)] = 1.0f;
    int bin = std::min(item.t / config_.time_bin_minutes, time_bins - 1);
    ids[static_cast<size_t>(dataset_->num_areas() + bin)] = 1.0f;
    ids[static_cast<size_t>(dataset_->num_areas() + time_bins +
                            item.week_id)] = 1.0f;
    out.insert(out.end(), ids.begin(), ids.end());
  } else {
    out.push_back(static_cast<float>(item.area));
    out.push_back(static_cast<float>(item.t));
    out.push_back(static_cast<float>(item.week_id));
  }

  // Per signal: the real-time 2L vector, then its 7×2L history.
  const size_t dim = 2 * static_cast<size_t>(L);
  const size_t per_signal = dim + data::kDaysPerWeek * dim;
  const size_t orders_begin = out.size();
  out.resize(orders_begin + 3 * per_signal, 0.0f);
  float* sd = out.data() + orders_begin;
  float* lc = sd + per_signal;
  float* wt = lc + per_signal;
  std::vector<float> v_sd =
      SupplyDemandVector(*dataset_, item.area, item.day, item.t, L);
  std::copy(v_sd.begin(), v_sd.end(), sd);
  thread_local EpisodeScratch scratch;
  AccumulateLastCallWaitingTime(
      dataset_->OrdersInRange(item.area, item.day, item.t - L, item.t), item.t,
      L, &scratch, lc, wt);
  History(item.area, item.day, item.t, sd + dim, lc + dim, wt + dim);
  NormalizeCounts(sd, 3 * per_signal);

  // Weather at t-1: one-hot type + scaled temperature and PM2.5.
  const data::WeatherRecord& w =
      dataset_->WeatherAt(item.day, std::max(item.t - 1, 0));
  for (int k = 0; k < kWeatherVocab; ++k) {
    out.push_back(w.type == k ? 1.0f : 0.0f);
  }
  out.push_back(NormTemp(w.temperature));
  out.push_back(NormPm(w.pm25));

  for (int l = 1; l <= L; ++l) {
    int ts = std::max(item.t - l, 0);
    const data::TrafficRecord& tr = dataset_->TrafficAt(item.area, item.day, ts);
    for (int level = 0; level < data::kCongestionLevels; ++level) {
      float c = static_cast<float>(tr.level_counts[level]);
      out.push_back(NormTraffic(level, c));
    }
  }
  DEEPSD_CHECK(static_cast<int>(out.size()) == FlatDim(onehot_categoricals));
  return out;
}

std::vector<std::string> FeatureAssembler::FlatFeatureNames(
    bool onehot_categoricals) const {
  const int L = config_.window;
  std::vector<std::string> names;
  if (onehot_categoricals) {
    for (int a = 0; a < dataset_->num_areas(); ++a) {
      names.push_back(util::StrFormat("area_%d", a));
    }
    int time_bins = data::kMinutesPerDay / config_.time_bin_minutes;
    for (int b = 0; b < time_bins; ++b) {
      names.push_back(util::StrFormat("timebin_%d", b));
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      names.push_back(util::StrFormat("week_%d", w));
    }
  } else {
    names = {"area_id", "time_id", "week_id"};
  }
  const char* kinds[3] = {"sd", "lc", "wt"};
  for (const char* kind : kinds) {
    for (int k = 0; k < 2 * L; ++k) {
      names.push_back(util::StrFormat("v_%s_%d", kind, k));
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      for (int k = 0; k < 2 * L; ++k) {
        names.push_back(util::StrFormat("h_%s_w%d_%d", kind, w, k));
      }
    }
  }
  for (int k = 0; k < kWeatherVocab; ++k) {
    names.push_back(util::StrFormat("wc_type_%d", k));
  }
  names.push_back("wc_temp");
  names.push_back("wc_pm25");
  for (int l = 1; l <= L; ++l) {
    for (int level = 0; level < data::kCongestionLevels; ++level) {
      names.push_back(util::StrFormat("tc_l%d_level%d", l, level + 1));
    }
  }
  return names;
}

}  // namespace feature
}  // namespace deepsd
