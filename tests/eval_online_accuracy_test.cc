#include "src/eval/online_accuracy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/drift.h"
#include "src/feature/feature_assembler.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/serving/online_predictor.h"
#include "src/util/deadline.h"
#include "tests/test_util.h"

namespace deepsd {
namespace eval {
namespace {

class OnlineAccuracyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::Enabled();
    obs::SetEnabled(true);
  }
  void TearDown() override { obs::SetEnabled(was_enabled_); }

  /// Feeds a prediction for one area directly through the observer tap.
  void Predict(OnlineAccuracyTracker* tracker, int area, int64_t now_abs,
               float gap, serving::FallbackTier tier) {
    serving::PredictResult result;
    result.gaps = {gap};
    result.tier = tier;
    tracker->OnPrediction({area}, result, {}, now_abs);
  }

  /// One invalid (= gap-contributing) order through the stream tap.
  void InvalidOrder(OnlineAccuracyTracker* tracker, int area, int64_t ts_abs) {
    data::Order o;
    o.day = static_cast<int>(ts_abs / data::kMinutesPerDay);
    o.ts = static_cast<int>(ts_abs % data::kMinutesPerDay);
    o.start_area = area;
    o.valid = false;
    tracker->OnOrderAccepted(o, ts_abs);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(OnlineAccuracyTest, JoinsPredictionAgainstSlotTruth) {
  OnlineAccuracyConfig config;
  config.num_areas = 2;
  OnlineAccuracyTracker tracker(config);

  // Predict gap 3 for area 0's slot [1000, 1010); truth turns out to be 2
  // (one invalid order in the slot lands outside it and must not count).
  Predict(&tracker, 0, 1000, 3.0f, serving::FallbackTier::kNone);
  InvalidOrder(&tracker, 0, 1000);
  InvalidOrder(&tracker, 0, 1009);
  InvalidOrder(&tracker, 0, 1010);  // next slot
  InvalidOrder(&tracker, 1, 1005);  // other area
  EXPECT_EQ(tracker.pending(), 1u);
  EXPECT_EQ(tracker.joined(), 0u);

  tracker.OnClockAdvance(1009);  // slot not closed yet
  EXPECT_EQ(tracker.joined(), 0u);
  tracker.OnClockAdvance(1010);
  EXPECT_EQ(tracker.joined(), 1u);
  EXPECT_EQ(tracker.pending(), 0u);

  TierAccuracy overall = tracker.Overall();
  EXPECT_EQ(overall.count, 1u);
  EXPECT_DOUBLE_EQ(overall.mae, 1.0);   // |3 - 2|
  EXPECT_DOUBLE_EQ(overall.rmse, 1.0);
  EXPECT_DOUBLE_EQ(overall.er, 0.5);    // 1 / 2

  // Valid orders carry no gap signal.
  data::Order valid;
  valid.start_area = 0;
  valid.valid = true;
  Predict(&tracker, 0, 1010, 1.0f, serving::FallbackTier::kNone);
  tracker.OnOrderAccepted(valid, 1015);
  tracker.OnClockAdvance(1020);
  EXPECT_DOUBLE_EQ(tracker.ForArea(0).mae, (1.0 + 1.0) / 2);
}

TEST_F(OnlineAccuracyTest, PerTierGaugesMatchHandComputedAccuracy) {
  OnlineAccuracyConfig config;
  config.num_areas = 1;
  OnlineAccuracyTracker tracker(config);

  // Two fresh joins (errors 1 and 3) and one ZOH join (error 2), with
  // truths 2, 4 and 1.
  struct Case {
    float predicted, truth;
    serving::FallbackTier tier;
  };
  const std::vector<Case> cases = {
      {3.0f, 2.0f, serving::FallbackTier::kNone},
      {1.0f, 4.0f, serving::FallbackTier::kNone},
      {3.0f, 1.0f, serving::FallbackTier::kZeroOrderHold},
  };
  int64_t t = 100;
  for (const Case& c : cases) {
    Predict(&tracker, 0, t, c.predicted, c.tier);
    for (int i = 0; i < static_cast<int>(c.truth); ++i) {
      InvalidOrder(&tracker, 0, t + i);
    }
    t += data::kGapWindow;
    tracker.OnClockAdvance(t);
  }

  // Offline recomputation of the same joins.
  const TierAccuracy fresh = tracker.ForTier(serving::FallbackTier::kNone);
  EXPECT_EQ(fresh.count, 2u);
  EXPECT_NEAR(fresh.mae, (1.0 + 3.0) / 2, 1e-9);
  EXPECT_NEAR(fresh.rmse, std::sqrt((1.0 + 9.0) / 2), 1e-9);
  EXPECT_NEAR(fresh.er, 4.0 / 6.0, 1e-9);
  const TierAccuracy zoh =
      tracker.ForTier(serving::FallbackTier::kZeroOrderHold);
  EXPECT_EQ(zoh.count, 1u);
  EXPECT_NEAR(zoh.mae, 2.0, 1e-9);

  // The published gauges carry exactly the accessor values.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_NEAR(reg.GetGauge("accuracy/mae_fresh")->value(), fresh.mae, 1e-9);
  EXPECT_NEAR(reg.GetGauge("accuracy/rmse_fresh")->value(), fresh.rmse, 1e-9);
  EXPECT_NEAR(reg.GetGauge("accuracy/er_fresh")->value(), fresh.er, 1e-9);
  EXPECT_NEAR(reg.GetGauge("accuracy/mae_zoh")->value(), zoh.mae, 1e-9);
  EXPECT_NEAR(reg.GetGauge("accuracy/mae")->value(), tracker.Overall().mae,
              1e-9);
  EXPECT_DOUBLE_EQ(reg.GetGauge("accuracy/worst_area_id")->value(), 0.0);
}

TEST_F(OnlineAccuracyTest, RollingWindowEvictsExactContributions) {
  OnlineAccuracyConfig config;
  config.num_areas = 1;
  config.window_samples = 2;
  OnlineAccuracyTracker tracker(config);

  // Three joins with errors 5, 1, 2; the window keeps the last two.
  int64_t t = 0;
  for (float predicted : {5.0f, 1.0f, 2.0f}) {
    Predict(&tracker, 0, t, predicted, serving::FallbackTier::kNone);
    t += data::kGapWindow;
    tracker.OnClockAdvance(t);  // truth stays 0
  }
  const TierAccuracy overall = tracker.Overall();
  EXPECT_EQ(overall.count, 2u);
  EXPECT_NEAR(overall.mae, (1.0 + 2.0) / 2, 1e-9);
  EXPECT_EQ(tracker.joined(), 3u);  // lifetime total keeps counting
}

TEST_F(OnlineAccuracyTest, PendingIsBoundedPerArea) {
  OnlineAccuracyConfig config;
  config.num_areas = 1;
  config.max_pending_per_area = 3;
  OnlineAccuracyTracker tracker(config);
  for (int i = 0; i < 5; ++i) {
    Predict(&tracker, 0, 1000 + i, 1.0f, serving::FallbackTier::kNone);
  }
  EXPECT_EQ(tracker.pending(), 3u);
  EXPECT_EQ(tracker.dropped_pending(), 2u);
  // Out-of-range areas are ignored, not fatal.
  Predict(&tracker, 99, 1000, 1.0f, serving::FallbackTier::kNone);
  EXPECT_EQ(tracker.pending(), 3u);
}

TEST_F(OnlineAccuracyTest, DriftReactsToDistributionShift) {
  OnlineAccuracyConfig config;
  config.num_areas = 1;
  OnlineAccuracyTracker tracker(config);

  int64_t t = 0;
  auto run = [&](float predicted, int joins) {
    for (int i = 0; i < joins; ++i) {
      Predict(&tracker, 0, t, predicted, serving::FallbackTier::kNone);
      t += data::kGapWindow;
      tracker.OnClockAdvance(t);
    }
  };
  run(2.0f, 50);  // long steady phase: fast and slow EWMAs converge
  const double steady = tracker.PredictionDrift();
  run(10.0f, 5);  // sudden level shift: fast EWMA runs ahead
  EXPECT_GT(tracker.PredictionDrift(), steady + 1.0);
  EXPECT_GT(tracker.ResidualDrift(), 0.0);
}

TEST_F(OnlineAccuracyTest, PsiDetectsInputShiftAgainstReference) {
  OnlineAccuracyConfig config;
  config.num_areas = 1;
  OnlineAccuracyTracker tracker(config);

  // Reference: activity uniformly spread over buckets (<=1, <=2, <=3, >3).
  core::ReferenceHistogram ref;
  ref.bounds = {1.0f, 2.0f, 3.0f};
  ref.counts = {25, 25, 25, 25};
  tracker.SetInputReference(ref);
  EXPECT_DOUBLE_EQ(tracker.InputPsi(), 0.0);  // no live data yet

  serving::PredictResult result;
  result.gaps = {0.0f};
  result.tier = serving::FallbackTier::kNone;
  // Live distribution matching the reference: PSI stays small.
  for (int i = 0; i < 40; ++i) {
    tracker.OnPrediction({0}, result, {0.5f + 1.0f * (i % 4)}, 0);
  }
  const double matched = tracker.InputPsi();
  EXPECT_LT(matched, 0.1);

  // Everything piling into the overflow bucket is a major shift.
  for (int i = 0; i < 400; ++i) {
    tracker.OnPrediction({0}, result, {50.0f}, 0);
  }
  EXPECT_GT(tracker.InputPsi(), 0.25);
  EXPECT_GT(tracker.InputPsi(), matched);
}

/// End-to-end: a real predictor with the tracker on both taps, replaying a
/// simulated day. The tracker's windowed MAE must agree with an offline
/// recomputation from the recorded predictions and the dataset's own
/// invalid-order counts.
TEST_F(OnlineAccuracyTest, AgreesWithOfflineRecomputationOnLiveReplay) {
  data::OrderDataset ds = deepsd::testing::MakeSmallCity(4, 12, 99);
  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&ds, fc, 0, 10);
  nn::ParameterStore store;
  util::Rng rng(1);
  core::DeepSDConfig mc;
  mc.num_areas = ds.num_areas();
  mc.use_weather = true;
  mc.use_traffic = true;
  core::DeepSDModel model(mc, core::DeepSDModel::Mode::kBasic, &store, &rng);

  serving::OnlinePredictor predictor(&model, &assembler);
  OnlineAccuracyConfig config;
  config.num_areas = ds.num_areas();
  OnlineAccuracyTracker tracker(config);
  predictor.set_prediction_observer(&tracker);
  predictor.buffer().set_stream_observer(&tracker);

  std::vector<int> areas;
  for (int a = 0; a < ds.num_areas(); ++a) areas.push_back(a);

  const int day = 11;
  const int start = 600, end = 760;
  // (area, slot start minute) -> prediction, recorded as they happen.
  std::map<std::pair<int, int>, float> predicted;
  predictor.AdvanceTo(day, start);
  for (int ts = start; ts < end; ++ts) {
    data::ReplayMinute(ds, day, ts, predictor.buffer());
    predictor.AdvanceTo(day, ts + 1);
    if ((ts + 1) % data::kGapWindow == 0 && ts + 1 < end - data::kGapWindow) {
      serving::PredictResult r =
          predictor.PredictBatch(areas, util::Deadline::Infinite());
      for (int a = 0; a < ds.num_areas(); ++a) {
        predicted[{a, ts + 1}] = r.gaps[static_cast<size_t>(a)];
      }
    }
  }

  ASSERT_EQ(tracker.joined(), predicted.size());
  ASSERT_GT(tracker.joined(), 0u);

  // Offline recomputation: the true gap of slot [t, t+10) is the dataset's
  // invalid-order count (every order was fed, no faults active).
  double abs_sum = 0, sq_sum = 0, truth_sum = 0;
  for (const auto& [key, gap] : predicted) {
    const auto [area, t] = key;
    double truth = 0;
    for (int ts = t; ts < t + data::kGapWindow; ++ts) {
      for (const data::Order& o : ds.OrdersAt(area, day, ts)) {
        if (!o.valid) truth += 1;
      }
    }
    const double err = static_cast<double>(gap) - truth;
    abs_sum += std::abs(err);
    sq_sum += err * err;
    truth_sum += truth;
  }
  const double n = static_cast<double>(predicted.size());
  const TierAccuracy overall = tracker.Overall();
  EXPECT_NEAR(overall.mae, abs_sum / n, 1e-5);
  EXPECT_NEAR(overall.rmse, std::sqrt(sq_sum / n), 1e-5);
  if (truth_sum > 0) {
    EXPECT_NEAR(overall.er, abs_sum / truth_sum, 1e-5);
  }
  // Fresh feeds: every join lands in the kNone tier.
  EXPECT_EQ(tracker.ForTier(serving::FallbackTier::kNone).count,
            tracker.joined());

  predictor.set_prediction_observer(nullptr);
  predictor.buffer().set_stream_observer(nullptr);
}

}  // namespace
}  // namespace eval
}  // namespace deepsd
