#ifndef DEEPSD_BENCH_SERVING_PROBE_H_
#define DEEPSD_BENCH_SERVING_PROBE_H_

// The probe model the serving benches (bench_overload,
// bench_sharded_serving) run their load against.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/trainer.h"
#include "feature/feature_assembler.h"
#include "sim/city_sim.h"

namespace deepsd {
namespace bench {

/// A simulated city, a 1-epoch `kBasic` DeepSD trained at stride 60 on its
/// first two thirds of days, the assembler over those days, and the first
/// held-out day to serve.
struct ServingProbe {
  /// Requests are asked at 08:00 of the serve day.
  static constexpr int kMorning = 480;

  data::OrderDataset dataset;
  int serve_day = 0;
  std::unique_ptr<feature::FeatureAssembler> assembler;
  nn::ParameterStore params;
  std::unique_ptr<core::DeepSDModel> model;
  std::vector<int> all_areas;

  /// Replays the feature window before kMorning into `sink` and moves its
  /// clock to kMorning, so calls run at tier kNone on fresh feeds.
  template <typename Sink>
  void FeedMorning(Sink& sink) const {
    const int window = assembler->config().window;
    sink.AdvanceTo(serve_day, kMorning - window);
    for (int ts = kMorning - window; ts < kMorning; ++ts) {
      data::ReplayMinute(dataset, serve_day, ts, sink);
    }
    sink.AdvanceTo(serve_day, kMorning);
  }
};

inline std::unique_ptr<ServingProbe> TrainServingProbe(
    const sim::CityConfig& city) {
  std::printf("simulating %d areas x %d days, training probe model...\n",
              city.num_areas, city.num_days);
  auto p = std::make_unique<ServingProbe>();
  p->dataset = sim::SimulateCity(city);
  const int train_days = std::max(2, city.num_days * 2 / 3);
  p->serve_day = train_days;
  p->assembler = std::make_unique<feature::FeatureAssembler>(
      &p->dataset, feature::FeatureConfig{}, 0, train_days);
  core::DeepSDConfig config;
  config.num_areas = p->dataset.num_areas();
  config.use_weather = p->dataset.has_weather();
  config.use_traffic = p->dataset.has_traffic();
  util::Rng rng(7);
  p->model = std::make_unique<core::DeepSDModel>(
      config, core::DeepSDModel::Mode::kBasic, &p->params, &rng);
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.best_k = 0;
  core::AssemblerSource train(
      p->assembler.get(),
      data::MakeItems(p->dataset, 0, train_days, 20, 1430, 60),
      /*advanced=*/false);
  core::Trainer(tc).Train(p->model.get(), &p->params, train, train);
  for (int a = 0; a < p->dataset.num_areas(); ++a) p->all_areas.push_back(a);
  return p;
}

}  // namespace bench
}  // namespace deepsd

#endif  // DEEPSD_BENCH_SERVING_PROBE_H_
