#ifndef DEEPSD_LEARN_SHADOW_EVAL_H_
#define DEEPSD_LEARN_SHADOW_EVAL_H_

#include <cstdint>
#include <memory>

#include "eval/online_accuracy.h"
#include "serving/online_predictor.h"
#include "store/stored_model.h"
#include "store/versioned_model.h"

namespace deepsd {
namespace learn {

/// Side-by-side accuracy of the shadowed candidate vs the live serving
/// model over the same traffic and the same ground truth.
struct ShadowComparison {
  eval::TierAccuracy serving;
  eval::TierAccuracy candidate;
  /// Joined samples both sides have (min of the two) — the gate's
  /// min-sample floor applies to this.
  uint64_t samples = 0;
};

/// Replays a candidate model against live traffic alongside serving,
/// without touching the serving path (docs/continuous_learning.md).
///
/// Wiring: the evaluator is a PredictionObserver — chain it into the
/// serving predictor's tap (the learner does this). Every served batch is
/// recorded for the serving-side tracker, then re-answered by a private
/// OnlinePredictor over the candidate version and recorded for the
/// candidate-side tracker. Both trackers join against the *same* ground
/// truth: the candidate predictor's buffer — fed a copy of the live stream
/// via the Add*/AdvanceTo forwarders — fans its stream events out to both.
/// The candidate's buffer clock must be advanced before serving predicts a
/// minute (AdvanceTo first, then serving's), so shadow answers are for the
/// same slot as serving's.
///
/// Thread safety: OnPrediction may fire concurrently from serving threads
/// (the trackers and the candidate predictor are thread-safe); the feed
/// forwarders are called from the ingesting thread.
class ShadowEvaluator : public serving::PredictionObserver,
                        private serving::StreamObserver {
 public:
  /// `candidate` is kept alive by the evaluator; `history` must outlive it
  /// (the same assembler serving uses — the empirical vectors come from
  /// the training period either way).
  ShadowEvaluator(std::shared_ptr<const store::StoredModel> candidate,
                  const feature::FeatureAssembler* history,
                  const eval::OnlineAccuracyConfig& acc_config,
                  serving::FallbackConfig fallback = {});

  // serving::PredictionObserver — the serving tap.
  void OnPrediction(const std::vector<int>& area_ids,
                    const serving::PredictResult& result,
                    const std::vector<float>& activity,
                    int64_t now_abs) override;

  // Live-stream copy (the learner forwards every feed event here).
  void AddOrder(const data::Order& order);
  void AddWeather(const data::WeatherRecord& record);
  void AddTraffic(const data::TrafficRecord& record);
  void AdvanceTo(int day, int minute);

  ShadowComparison Compare() const;
  /// The candidate side's tracker: its per-tier and per-area breakdowns.
  const eval::OnlineAccuracyTracker& candidate_accuracy() const {
    return candidate_acc_;
  }
  std::string candidate_id() const { return candidate_->version_id(); }
  const std::shared_ptr<const store::StoredModel>& candidate() const {
    return candidate_;
  }

 private:
  // serving::StreamObserver — attached to the candidate predictor's buffer;
  // fans ground truth out to both trackers. Runs under that buffer's lock
  // and only calls into the trackers (their own mutexes), never back into
  // the firing buffer.
  void OnOrderAccepted(const data::Order& order, int64_t ts_abs) override;
  void OnClockAdvance(int64_t now_abs) override;

  std::shared_ptr<const store::StoredModel> candidate_;
  /// Serves candidate_ itself, so the shadow's tier-3 answers come from
  /// the baseline packaged with it, as serving's would.
  store::VersionedModel versions_;
  serving::OnlinePredictor predictor_;  ///< Candidate, private buffer.
  eval::OnlineAccuracyTracker serving_acc_;
  eval::OnlineAccuracyTracker candidate_acc_;
};

}  // namespace learn
}  // namespace deepsd

#endif  // DEEPSD_LEARN_SHADOW_EVAL_H_
