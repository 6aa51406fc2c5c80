#include "src/learn/shadow_eval.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/empirical_average.h"
#include "src/core/model.h"
#include "src/feature/feature_assembler.h"
#include "src/nn/parameter.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/store/pack.h"
#include "src/store/stored_model.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace deepsd {
namespace learn {
namespace {

class ShadowEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::Enabled();
    obs::SetEnabled(true);
    dataset_ = testing::MakeSmallCity(/*areas=*/4, /*days=*/8, /*seed=*/77);
    feature::FeatureConfig features;
    assembler_ = std::make_unique<feature::FeatureAssembler>(
        &dataset_, features, /*ref_day_begin=*/0, /*ref_day_end=*/6);
    candidate_ = PackAndOpen("shadow-cand");
  }
  void TearDown() override { obs::SetEnabled(was_enabled_); }

  std::shared_ptr<const store::StoredModel> PackAndOpen(
      const std::string& id,
      const baselines::EmpiricalAverage* ea = nullptr) {
    core::DeepSDConfig config;
    config.num_areas = 4;
    nn::ParameterStore params;
    util::Rng rng(5);
    core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &params,
                            &rng);
    const std::string path = ::testing::TempDir() + "/" + id + ".dsar";
    store::PackOptions options;
    options.version_id = id;
    util::Status st =
        store::PackModelArtifact(model, params, ea, options, path);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::shared_ptr<const store::StoredModel> opened;
    st = store::StoredModel::Open(path, &opened);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return opened;
  }

  /// A fake serving answer for the given areas.
  static serving::PredictResult ServingAnswer(size_t n, float gap) {
    serving::PredictResult result;
    result.gaps.assign(n, gap);
    result.tier = serving::FallbackTier::kNone;
    return result;
  }

  void FeedMinute(ShadowEvaluator* shadow, int day, int minute,
                  int invalid_orders_area0) {
    shadow->AdvanceTo(day, minute);
    for (int i = 0; i < invalid_orders_area0; ++i) {
      data::Order o;
      o.day = day;
      o.ts = minute;
      o.passenger_id = 100 * minute + i;
      o.start_area = 0;
      o.dest_area = 1;
      o.valid = false;
      shadow->AddOrder(o);
    }
  }

  bool was_enabled_ = false;
  data::OrderDataset dataset_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::shared_ptr<const store::StoredModel> candidate_;
};

TEST_F(ShadowEvalTest, PairsServingAndCandidateOnTheSameTraffic) {
  eval::OnlineAccuracyConfig acc;
  acc.num_areas = 4;
  ShadowEvaluator shadow(candidate_, assembler_.get(), acc);
  EXPECT_EQ(shadow.candidate_id(), "shadow-cand");

  // Day 6 (after the reference window), minute by minute: serving predicts
  // gap 2 for areas {0, 1}; truth is 3 invalid orders in area 0's slot,
  // arriving after the slot opens (earlier arrivals never join).
  const int day = 6;
  for (int minute = 30; minute < 90; ++minute) {
    if (minute % 10 == 0) {
      shadow.AdvanceTo(day, minute);
      const int64_t now_abs = day * data::kMinutesPerDay + minute;
      shadow.OnPrediction({0, 1}, ServingAnswer(2, 2.0f), {}, now_abs);
    }
    FeedMinute(&shadow, day, minute, minute % 10 == 0 ? 3 : 0);
  }
  // Close the final slot.
  shadow.AdvanceTo(day, 100);

  ShadowComparison cmp = shadow.Compare();
  // Both sides joined the same predictions: 6 prediction minutes × 2 areas.
  EXPECT_EQ(cmp.serving.count, 12u);
  EXPECT_EQ(cmp.candidate.count, 12u);
  EXPECT_EQ(cmp.samples, 12u);
  // Serving error is exact: |2 - 3| on area 0 joins, |2 - 0| on area 1.
  EXPECT_DOUBLE_EQ(cmp.serving.mae, (6 * 1.0 + 6 * 2.0) / 12);
  // The candidate answered with a real model — finite, nonnegative error.
  EXPECT_GE(cmp.candidate.mae, 0);
  EXPECT_TRUE(std::isfinite(cmp.candidate.mae));
  EXPECT_TRUE(std::isfinite(cmp.candidate.rmse));
}

TEST_F(ShadowEvalTest, NeverTouchesProductionAccuracyGauges) {
  // The shadow pair measures the same statistic the live tracker exports,
  // but must not write accuracy/* — a promotion decision reading dashboards
  // mid-shadow would otherwise see the shadow's numbers.
  obs::Gauge* mae = obs::MetricsRegistry::Global().GetGauge("accuracy/mae");
  mae->Set(-123.5);

  eval::OnlineAccuracyConfig acc;
  acc.num_areas = 4;
  ShadowEvaluator shadow(candidate_, assembler_.get(), acc);
  const int day = 6;
  for (int minute = 30; minute < 120; ++minute) {
    FeedMinute(&shadow, day, minute, 1);
    const int64_t now_abs = day * data::kMinutesPerDay + minute;
    shadow.OnPrediction({0}, ServingAnswer(1, 1.0f), {}, now_abs);
  }
  shadow.AdvanceTo(day, 200);
  ASSERT_GT(shadow.Compare().samples, 0u);

  EXPECT_DOUBLE_EQ(mae->value(), -123.5);
}

TEST_F(ShadowEvalTest, SamplesIsMinOfBothSides) {
  eval::OnlineAccuracyConfig acc;
  acc.num_areas = 4;
  ShadowEvaluator shadow(candidate_, assembler_.get(), acc);
  // No predictions at all: zero samples, zero-valued accuracies.
  ShadowComparison cmp = shadow.Compare();
  EXPECT_EQ(cmp.samples, 0u);
  EXPECT_EQ(cmp.serving.count, 0u);
  EXPECT_EQ(cmp.candidate.count, 0u);
}

TEST_F(ShadowEvalTest, CandidateSeesOnlyTrafficFedAfterItStarted) {
  // The shadow's buffer starts empty — its first predictions lean on the
  // fallback tiers rather than crashing on missing history.
  eval::OnlineAccuracyConfig acc;
  acc.num_areas = 4;
  ShadowEvaluator shadow(candidate_, assembler_.get(), acc);
  shadow.AdvanceTo(6, 30);
  const int64_t now_abs = 6 * data::kMinutesPerDay + 30;
  shadow.OnPrediction({0, 1, 2, 3}, ServingAnswer(4, 1.0f), {}, now_abs);
  shadow.AdvanceTo(6, 45);
  ShadowComparison cmp = shadow.Compare();
  EXPECT_EQ(cmp.serving.count, 4u);
  EXPECT_EQ(cmp.candidate.count, 4u);
}

TEST_F(ShadowEvalTest, StalledOrdersAnswerFromCandidatesPackagedBaseline) {
  // Tier 3 comes from the baseline packaged with the candidate, as it does
  // when serving publishes that version: the shadow attaches none itself.
  baselines::EmpiricalAverage ea;
  ea.Fit(data::MakeItems(dataset_, 0, 6, 20, 1430, 10));
  std::shared_ptr<const store::StoredModel> candidate =
      PackAndOpen("shadow-ea", &ea);
  ASSERT_NE(candidate->baseline(), nullptr);
  eval::OnlineAccuracyConfig acc;
  acc.num_areas = 4;
  const serving::FallbackConfig fallback;
  ShadowEvaluator shadow(candidate, assembler_.get(), acc, fallback);

  const int day = 6;
  for (int minute = 380; minute < 400; ++minute) {
    FeedMinute(&shadow, day, minute, 1);
  }
  // No order anywhere for longer than baseline_after_minutes.
  const int t = 400 + fallback.baseline_after_minutes + 20;
  shadow.AdvanceTo(day, t);
  const float want = candidate->baseline()->Predict(0, t);
  ASSERT_GT(want, 0.0f);  // 0 would equal the empty slot's true gap
  shadow.OnPrediction({0}, ServingAnswer(1, 1.0f), {},
                      day * data::kMinutesPerDay + t);
  shadow.AdvanceTo(day, t + data::kGapWindow + 5);

  // The slot saw no order, so its true gap is 0 and the one joined
  // sample's absolute error is the shadow's answer itself.
  const eval::TierAccuracy at_baseline =
      shadow.candidate_accuracy().ForTier(serving::FallbackTier::kBaseline);
  EXPECT_EQ(at_baseline.count, 1u);
  EXPECT_EQ(shadow.Compare().candidate.count, 1u);
  EXPECT_DOUBLE_EQ(at_baseline.mae, static_cast<double>(want));
}

}  // namespace
}  // namespace learn
}  // namespace deepsd
