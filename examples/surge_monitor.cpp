// Surge monitor: online serving with the OnlinePredictor (src/serving).
//
// Replays a simulated day as a live event stream — orders, weather and
// traffic arrive minute by minute into an OrderStreamBuffer — and every 5
// minutes asks a trained Advanced DeepSD model for each area's gap over the
// next 10 minutes, raising a surge alert when the prediction crosses a
// threshold. At the end it scores the alerts against the ground truth
// (precision / recall), the operational quality a dispatcher cares about.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/trainer.h"
#include "serving/online_predictor.h"
#include "sim/city_sim.h"
#include "util/string_util.h"

int main() {
  using namespace deepsd;

  sim::CityConfig city;
  city.num_areas = 10;
  city.num_days = 22;
  city.seed = 2718;
  data::OrderDataset dataset = sim::SimulateCity(city);

  const int train_end = 21;
  const int live_day = 21;
  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&dataset, fc, 0, train_end);
  auto train_items = data::MakeItems(dataset, 0, train_end, 20, 1430, 15);

  core::DeepSDConfig config;
  config.num_areas = dataset.num_areas();
  nn::ParameterStore params;
  util::Rng rng(3);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &params,
                          &rng);
  core::AssemblerSource train(&assembler, train_items, true);
  core::TrainConfig tc;
  tc.epochs = 4;
  tc.best_k = 2;
  std::printf("training Advanced DeepSD on %zu items...\n", train_items.size());
  core::Trainer(tc).Train(&model, &params, train, train);

  // Live serving: stream the day's events through the predictor.
  serving::OnlinePredictor predictor(&model, &assembler);
  std::vector<int> all_areas(static_cast<size_t>(dataset.num_areas()));
  std::iota(all_areas.begin(), all_areas.end(), 0);
  const float kThreshold = 8.0f;
  int true_positives = 0, false_positives = 0, false_negatives = 0;
  int alerts = 0;

  std::printf("\n=== live replay of day %d (alert if predicted gap ≥ %.0f) ===\n",
              live_day, kThreshold);
  for (int ts = 0; ts <= 1420; ++ts) {
    predictor.AdvanceTo(live_day, ts);
    // Feed this minute's events exactly as a message bus would deliver them.
    data::ReplayMinute(dataset, live_day, ts, predictor.buffer());

    // Decision epoch every 5 minutes during operating hours.
    int next = ts + 1;
    if (next < 420 || next > 1420 || next % 5 != 0) continue;
    predictor.AdvanceTo(live_day, next);
    std::vector<float> pred = predictor.PredictBatch(all_areas).gaps;

    for (int a = 0; a < dataset.num_areas(); ++a) {
      bool alert = pred[static_cast<size_t>(a)] >= kThreshold;
      bool surge = dataset.Gap(a, live_day, next) >= kThreshold;
      if (alert && surge) ++true_positives;
      if (alert && !surge) ++false_positives;
      if (!alert && surge) ++false_negatives;
      if (alert) {
        ++alerts;
        if (alerts <= 12) {
          std::printf("%s  ALERT area %-2d predicted gap %5.1f (true %d)\n",
                      util::MinuteToClock(next).c_str(), a,
                      pred[static_cast<size_t>(a)],
                      dataset.Gap(a, live_day, next));
        }
      }
    }
  }
  if (alerts > 12) std::printf("... %d alerts total\n", alerts);

  double precision = true_positives + false_positives
                         ? static_cast<double>(true_positives) /
                               (true_positives + false_positives)
                         : 0.0;
  double recall = true_positives + false_negatives
                      ? static_cast<double>(true_positives) /
                            (true_positives + false_negatives)
                      : 0.0;
  std::printf(
      "\nsurge detection over the day: %d surge slots, %d alerts\n"
      "precision %.2f, recall %.2f\n",
      true_positives + false_negatives, alerts, precision, recall);
  return 0;
}
