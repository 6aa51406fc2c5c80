// Quickstart: the minimal end-to-end use of the DeepSD library.
//
//   1. Simulate a small city (or load your own OrderDataset).
//   2. Build prediction items and a FeatureAssembler.
//   3. Train Basic DeepSD.
//   4. Predict supply-demand gaps for unseen days and report MAE/RMSE.
//   5. Save the trained model as a DSAR1 artifact (docs/model_store.md).
//
// Runs in well under a minute on a laptop.

#include <cstdio>

#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "sim/city_sim.h"
#include "store/pack.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace deepsd;

  // Where to save the trained model. Pass a path (e.g. a temp dir) to
  // keep the artifact out of your working tree; the default lands in the
  // current directory.
  const char* model_path = argc > 1 ? argv[1] : "quickstart_model.bin";

  // 1. A small city: 10 areas, 3 weeks. Replace with data::LoadDataset(...)
  //    to use a previously saved real dataset.
  sim::CityConfig city;
  city.num_areas = 10;
  city.num_days = 21;
  city.seed = 7;
  sim::SimSummary summary;
  data::OrderDataset dataset = sim::SimulateCity(city, &summary);
  std::printf("simulated %zu orders over %d areas x %d days (%.1f%% unmet)\n",
              summary.total_orders, dataset.num_areas(), dataset.num_days(),
              100.0 * summary.invalid_orders / summary.total_orders);

  // 2. Train on the first 2 weeks, test on the last one. Features follow the
  //    paper's protocol: one item per area every few minutes, look-back
  //    window L = 20 minutes.
  const int train_end = 14;
  feature::FeatureConfig feature_config;
  feature::FeatureAssembler assembler(&dataset, feature_config, 0, train_end);
  auto train_items = data::MakeItems(dataset, 0, train_end, 20, 1430, 15);
  auto test_items = data::MakeTestItems(dataset, train_end, 21);
  std::printf("%zu train items, %zu test items\n", train_items.size(),
              test_items.size());

  // 3. Basic DeepSD: embeddings + supply-demand block + environment blocks.
  core::DeepSDConfig model_config;
  model_config.num_areas = dataset.num_areas();
  nn::ParameterStore params;
  util::Rng rng(42);
  core::DeepSDModel model(model_config, core::DeepSDModel::Mode::kBasic,
                          &params, &rng);

  core::AssemblerSource train_source(&assembler, train_items, false);
  core::AssemblerSource test_source(&assembler, test_items, false);
  core::TrainConfig train_config;
  train_config.epochs = 5;
  train_config.best_k = 2;
  train_config.verbose = true;
  core::Trainer trainer(train_config);
  core::TrainResult result =
      trainer.Train(&model, &params, train_source, test_source);

  // 4. Evaluate.
  std::vector<float> predictions = model.Predict(test_source);
  std::vector<float> targets;
  for (const auto& item : test_items) targets.push_back(item.gap);
  eval::Metrics metrics = eval::ComputeMetrics(predictions, targets);
  std::printf("\ntest MAE  = %.3f\ntest RMSE = %.3f (best epoch %.3f)\n",
              metrics.mae, metrics.rmse, result.best_eval_rmse);

  // Show a few predictions next to the ground truth.
  std::printf("\n%6s %6s %8s %8s\n", "area", "time", "true", "pred");
  for (size_t i = 0; i < test_items.size(); i += test_items.size() / 10) {
    std::printf("%6d %6s %8.1f %8.1f\n", test_items[i].area,
                util::MinuteToClock(test_items[i].t).c_str(),
                test_items[i].gap, predictions[i]);
  }

  // 5. Persist the trained model. The artifact carries the model config,
  // so deepsd_predict serves it and `deepsd_train --finetune_from` warm-
  // starts a larger model from it (see extend_with_traffic.cpp).
  util::Status st = store::PackModelArtifact(model, params, nullptr,
                                             store::PackOptions(), model_path);
  std::printf("\nsaved model artifact to %s: %s\n", model_path,
              st.ToString().c_str());
  return st.ok() ? 0 : 1;
}
