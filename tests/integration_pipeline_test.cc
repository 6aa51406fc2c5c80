// End-to-end pipeline integration: simulate → persist → reload → train →
// persist model → reload → identical predictions → extend and fine-tune.
// This is the exact workflow the CLI tools wire together.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "src/core/trainer.h"
#include "src/data/serialize.h"
#include "src/sim/city_sim.h"
#include "src/store/pack.h"
#include "src/store/stored_model.h"

namespace deepsd {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("deepsd_pipeline_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(PipelineTest, FullWorkflowRoundTrips) {
  // 1. Simulate and persist the city.
  sim::CityConfig city;
  city.num_areas = 4;
  city.num_days = 10;
  city.seed = 20260707;
  city.mean_scale = 0.6;
  data::OrderDataset original = sim::SimulateCity(city);
  ASSERT_TRUE(data::SaveDataset(original, Path("city.bin")).ok());

  // 2. Reload — feature tables must be identical to the original's.
  data::OrderDataset dataset;
  ASSERT_TRUE(data::LoadDataset(Path("city.bin"), &dataset).ok());
  feature::FeatureConfig fc;
  fc.window = 8;
  feature::FeatureAssembler assembler(&dataset, fc, 0, 8);
  feature::FeatureAssembler original_assembler(&original, fc, 0, 8);
  std::vector<float> h1 = assembler.HistoricalSd(1, 2, 600);
  std::vector<float> h2 = original_assembler.HistoricalSd(1, 2, 600);
  EXPECT_EQ(h1, h2);

  // 3. Train a small advanced model.
  core::DeepSDConfig config;
  config.num_areas = dataset.num_areas();
  config.window = 8;
  nn::ParameterStore store;
  util::Rng rng(5);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  auto train_items = data::MakeItems(dataset, 0, 8, 500, 1300, 120);
  auto test_items = data::MakeTestItems(dataset, 8, 10);
  core::AssemblerSource train(&assembler, train_items, true);
  core::AssemblerSource test(&assembler, test_items, true);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.best_k = 0;
  core::Trainer(tc).Train(&model, &store, train, test);
  std::vector<float> preds = model.Predict(test);
  store::PackOptions pack;
  pack.encoding = store::ParamEncoding::kCompressed;
  ASSERT_TRUE(store::PackModelArtifact(model, store, nullptr, pack,
                                       Path("model.dsar"))
                  .ok());

  // 4. Reopen the artifact: the manifest rebuilds the model, which
  // predicts identically, and a fresh store warm-started from it too.
  std::shared_ptr<const store::StoredModel> stored;
  ASSERT_TRUE(store::StoredModel::Open(Path("model.dsar"), &stored).ok());
  nn::ParameterStore store2;
  util::Rng rng2(999);
  core::DeepSDModel model2(config, core::DeepSDModel::Mode::kAdvanced,
                           &store2, &rng2);
  EXPECT_EQ(static_cast<size_t>(store2.CopyFrom(stored->params())),
            store2.parameters().size());
  for (const std::vector<float>& preds2 :
       {stored->model().Predict(test), model2.Predict(test)}) {
    ASSERT_EQ(preds.size(), preds2.size());
    for (size_t i = 0; i < preds.size(); ++i) {
      ASSERT_FLOAT_EQ(preds[i], preds2[i]) << i;
    }
  }

  // 5. Extend the reloaded model with a wider config? Here: drop traffic
  // at train time, then re-add it — the fine-tuning path.
  core::DeepSDConfig no_tc = config;
  no_tc.use_traffic = false;
  nn::ParameterStore store3;
  util::Rng rng3(5);
  core::DeepSDModel small(no_tc, core::DeepSDModel::Mode::kAdvanced, &store3,
                          &rng3);
  core::Trainer(tc).Train(&small, &store3, train, test);
  std::vector<float> small_preds = small.Predict(test);

  core::DeepSDModel extended(config, core::DeepSDModel::Mode::kAdvanced,
                             &store3, &rng3);
  std::vector<float> extended_preds = extended.Predict(test);
  // Zero-initialized residual branch ⇒ the extension starts as an identity.
  for (size_t i = 0; i < small_preds.size(); ++i) {
    ASSERT_FLOAT_EQ(small_preds[i], extended_preds[i]);
  }
  // And it keeps training from there.
  core::TrainResult ft = core::Trainer(tc).Train(&extended, &store3, train, test);
  EXPECT_GT(ft.history.size(), 0u);
}

TEST_F(PipelineTest, BaselinesShareTheSameFeatureContract) {
  // The flat features the tree baselines consume must follow the same
  // dataset through save/load.
  sim::CityConfig city;
  city.num_areas = 3;
  city.num_days = 6;
  city.seed = 8;
  city.mean_scale = 0.6;
  data::OrderDataset dataset = sim::SimulateCity(city);
  ASSERT_TRUE(data::SaveDataset(dataset, Path("c2.bin")).ok());
  data::OrderDataset reloaded;
  ASSERT_TRUE(data::LoadDataset(Path("c2.bin"), &reloaded).ok());

  feature::FeatureConfig fc;
  feature::FeatureAssembler a1(&dataset, fc, 0, 5);
  feature::FeatureAssembler a2(&reloaded, fc, 0, 5);
  data::PredictionItem item;
  item.area = 1;
  item.day = 5;
  item.t = 700;
  item.week_id = dataset.WeekId(5);
  EXPECT_EQ(a1.AssembleFlat(item, false), a2.AssembleFlat(item, false));
  EXPECT_EQ(a1.AssembleFlat(item, true), a2.AssembleFlat(item, true));
}

}  // namespace
}  // namespace deepsd
