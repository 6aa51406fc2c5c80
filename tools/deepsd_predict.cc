// deepsd_predict: load a dataset + a trained DSAR1 model artifact and
// predict gaps. The model's mode and block structure come from the
// artifact's manifest.
//
//   deepsd_predict --data=city.bin --model=model.bin --ref_days=24 --day=30
//                  [--area=all] [--t=all] [--csv=out.csv] [--explain]

#include <cstdio>
#include <memory>

#include "core/explain.h"
#include "core/trainer.h"
#include "data/serialize.h"
#include "eval/metrics.h"
#include "store/stored_model.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/csv.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace deepsd;
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown({"data", "model", "ref_days", "day", "area",
                                    "t", "csv", "explain", "threads", "help"});
  if (!st.ok() || cli.GetBool("help", false) || !cli.Has("data") ||
      !cli.Has("model")) {
    std::fprintf(stderr,
                 "%s\nusage: deepsd_predict --data=city.bin --model=model.bin "
                 "--ref_days=N --day=D [--area=A] [--t=minute] "
                 "[--csv=out.csv] [--explain] [--threads=N]\n",
                 st.ToString().c_str());
    return 2;
  }

  // 0 = hardware concurrency; predictions are bit-identical for any value.
  st = util::ThreadPool::SetGlobalThreads(
      static_cast<int>(cli.GetInt("threads", 0)));
  if (!st.ok()) {
    std::fprintf(stderr, "--threads: %s\n", st.ToString().c_str());
    return 1;
  }

  data::OrderDataset dataset;
  st = data::LoadDataset(cli.GetString("data"), &dataset);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  int ref_days = static_cast<int>(
      cli.GetInt("ref_days", dataset.num_days() * 2 / 3));
  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&dataset, fc, 0, ref_days);

  std::shared_ptr<const store::StoredModel> stored;
  st = store::StoredModel::Open(cli.GetString("model"), &stored);
  if (!st.ok()) {
    std::fprintf(stderr, "model load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const core::DeepSDModel& model = stored->model();
  if (model.config().num_areas != dataset.num_areas()) {
    std::fprintf(stderr,
                 "model was trained for %d areas but the dataset has %d\n",
                 model.config().num_areas, dataset.num_areas());
    return 1;
  }
  const bool advanced = model.mode() == core::DeepSDModel::Mode::kAdvanced;

  int day = static_cast<int>(cli.GetInt("day", dataset.num_days() - 1));
  std::vector<data::PredictionItem> items;
  auto add_items = [&](int area) {
    if (cli.Has("t") && cli.GetString("t") != "all") {
      data::PredictionItem item;
      item.area = area;
      item.day = day;
      item.t = static_cast<int>(cli.GetInt("t", 450));
      item.week_id = dataset.WeekId(day);
      item.gap = static_cast<float>(dataset.Gap(area, day, item.t));
      items.push_back(item);
      return;
    }
    for (int t = 450; t <= 1410; t += 30) {
      data::PredictionItem item;
      item.area = area;
      item.day = day;
      item.t = t;
      item.week_id = dataset.WeekId(day);
      item.gap = static_cast<float>(dataset.Gap(area, day, t));
      items.push_back(item);
    }
  };
  if (cli.Has("area") && cli.GetString("area") != "all") {
    add_items(static_cast<int>(cli.GetInt("area", 0)));
  } else {
    for (int a = 0; a < dataset.num_areas(); ++a) add_items(a);
  }

  core::AssemblerSource source(&assembler, items, advanced);
  std::vector<float> preds = model.Predict(source);

  std::vector<float> targets;
  for (const auto& item : items) targets.push_back(item.gap);
  eval::Metrics m = eval::ComputeMetrics(preds, targets);
  std::printf("%zu predictions on day %d: MAE=%.3f RMSE=%.3f\n", items.size(),
              day, m.mae, m.rmse);

  if (cli.GetBool("explain", false) && !items.empty()) {
    // Sensitivity profile of the first requested prediction: which signals
    // and lags drive the forecast.
    feature::ModelInput input =
        advanced ? assembler.AssembleAdvanced(items[0])
                 : assembler.AssembleBasic(items[0]);
    auto sens = core::ExplainPrediction(model, input);
    std::printf("\nsignal importance for area %d at %s (day %d):\n",
                items[0].area, util::MinuteToClock(items[0].t).c_str(),
                items[0].day);
    for (const auto& [group, share] : core::GroupImportance(sens)) {
      std::printf("  %-12s %5.1f%%  %s\n", group.c_str(), 100.0 * share,
                  std::string(static_cast<size_t>(50 * share), '#').c_str());
    }
    std::printf("strongest single lags:\n");
    std::sort(sens.begin(), sens.end(),
              [](const core::FeatureSensitivity& a,
                 const core::FeatureSensitivity& b) {
                return std::abs(a.gradient) > std::abs(b.gradient);
              });
    for (size_t i = 0; i < sens.size() && i < 8; ++i) {
      std::printf("  %-12s lag %-2d  %+0.3f gap per unit\n",
                  sens[i].group.c_str(), sens[i].lag, sens[i].gradient);
    }
  }

  if (cli.Has("csv")) {
    util::CsvWriter csv(cli.GetString("csv"));
    csv.WriteRow(std::vector<std::string>{"area", "day", "t", "true_gap",
                                          "predicted_gap"});
    for (size_t i = 0; i < items.size(); ++i) {
      csv.WriteRow(std::vector<double>{
          static_cast<double>(items[i].area), static_cast<double>(items[i].day),
          static_cast<double>(items[i].t), items[i].gap, preds[i]});
    }
    csv.Close();
    std::printf("wrote %s\n", cli.GetString("csv").c_str());
  } else {
    for (size_t i = 0; i < items.size() && i < 40; ++i) {
      std::printf("area %-3d %s  true %6.1f  pred %6.1f\n", items[i].area,
                  util::MinuteToClock(items[i].t).c_str(), items[i].gap,
                  preds[i]);
    }
    if (items.size() > 40) std::printf("... (%zu total)\n", items.size());
  }
  return 0;
}
