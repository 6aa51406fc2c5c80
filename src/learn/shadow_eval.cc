#include "learn/shadow_eval.h"

#include <algorithm>

namespace deepsd {
namespace learn {

namespace {

eval::OnlineAccuracyConfig Unpublished(eval::OnlineAccuracyConfig config) {
  config.publish_metrics = false;
  return config;
}

}  // namespace

ShadowEvaluator::ShadowEvaluator(
    std::shared_ptr<const store::StoredModel> candidate,
    const feature::FeatureAssembler* history,
    const eval::OnlineAccuracyConfig& acc_config,
    serving::FallbackConfig fallback)
    : candidate_(std::move(candidate)),
      versions_(candidate_),
      predictor_(&versions_, history, fallback),
      serving_acc_(Unpublished(acc_config)),
      candidate_acc_(Unpublished(acc_config)) {
  predictor_.buffer().set_stream_observer(this);
}

void ShadowEvaluator::OnPrediction(const std::vector<int>& area_ids,
                                   const serving::PredictResult& result,
                                   const std::vector<float>& activity,
                                   int64_t now_abs) {
  serving_acc_.OnPrediction(area_ids, result, activity, now_abs);
  // Re-answer the same areas from the candidate, over the candidate's own
  // copy of the live stream. Activity is omitted: PSI scoring belongs to
  // the live tracker, the shadow only compares accuracy.
  serving::PredictResult shadow = predictor_.PredictBatch(area_ids);
  candidate_acc_.OnPrediction(area_ids, shadow, {}, now_abs);
}

void ShadowEvaluator::AddOrder(const data::Order& order) {
  predictor_.buffer().AddOrder(order);
}

void ShadowEvaluator::AddWeather(const data::WeatherRecord& record) {
  predictor_.buffer().AddWeather(record);
}

void ShadowEvaluator::AddTraffic(const data::TrafficRecord& record) {
  predictor_.buffer().AddTraffic(record);
}

void ShadowEvaluator::AdvanceTo(int day, int minute) {
  predictor_.AdvanceTo(day, minute);
}

void ShadowEvaluator::OnOrderAccepted(const data::Order& order,
                                      int64_t ts_abs) {
  serving_acc_.OnOrderAccepted(order, ts_abs);
  candidate_acc_.OnOrderAccepted(order, ts_abs);
}

void ShadowEvaluator::OnClockAdvance(int64_t now_abs) {
  serving_acc_.OnClockAdvance(now_abs);
  candidate_acc_.OnClockAdvance(now_abs);
}

ShadowComparison ShadowEvaluator::Compare() const {
  ShadowComparison cmp;
  cmp.serving = serving_acc_.Overall();
  cmp.candidate = candidate_acc_.Overall();
  cmp.samples = std::min(cmp.serving.count, cmp.candidate.count);
  return cmp;
}

}  // namespace learn
}  // namespace deepsd
