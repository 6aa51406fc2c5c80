// Tests of the extendability story (paper Sec V-C / Fig 16): training a
// model without environment blocks, bolting the blocks on, and fine-tuning
// from the already-trained parameters.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "src/core/trainer.h"
#include "src/store/pack.h"
#include "src/store/stored_model.h"
#include "tests/test_util.h"

namespace deepsd {
namespace core {
namespace {

constexpr int kL = 6;

class FinetuneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 31337);
    feature::FeatureConfig fc;
    fc.window = kL;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    train_items_ = data::MakeItems(ds_, 0, 10, 400, 1300, 90);
    test_items_ = data::MakeItems(ds_, 10, 12, 450, 1290, 240);
  }

  DeepSDConfig Config(bool env) const {
    DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.window = kL;
    config.use_weather = env;
    config.use_traffic = env;
    return config;
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::vector<data::PredictionItem> train_items_;
  std::vector<data::PredictionItem> test_items_;
};

TEST_F(FinetuneTest, ExtendedModelReusesTrainedParameters) {
  nn::ParameterStore store;
  util::Rng rng(1);
  DeepSDModel base(Config(false), DeepSDModel::Mode::kBasic, &store, &rng);

  AssemblerSource train(assembler_.get(), train_items_, false);
  AssemblerSource test(assembler_.get(), test_items_, false);
  TrainConfig tc;
  tc.epochs = 3;
  tc.best_k = 0;
  Trainer trainer(tc);
  trainer.Train(&base, &store, train, test);

  nn::Tensor trained_sd_w = store.Find("sd.fc1.w")->value;

  // Extend: same store, environment blocks added. Shared parameters keep
  // their trained values; new blocks appear.
  DeepSDModel extended(Config(true), DeepSDModel::Mode::kBasic, &store, &rng);
  EXPECT_NE(store.Find("weather.fc1.w"), nullptr);
  const nn::Tensor& after = store.Find("sd.fc1.w")->value;
  for (size_t i = 0; i < trained_sd_w.size(); ++i) {
    ASSERT_FLOAT_EQ(after.flat()[i], trained_sd_w.flat()[i]);
  }
  // Extended model runs.
  std::vector<feature::ModelInput> probe = {
      assembler_->AssembleBasic(test_items_[0])};
  EXPECT_EQ(extended.Predict(probe).size(), 1u);
}

TEST_F(FinetuneTest, FinetuningConvergesFasterThanRetraining) {
  AssemblerSource train(assembler_.get(), train_items_, false);
  AssemblerSource test(assembler_.get(), test_items_, false);

  // Phase 1: train a no-environment model well.
  nn::ParameterStore warm_store;
  util::Rng rng(2);
  DeepSDModel base(Config(false), DeepSDModel::Mode::kBasic, &warm_store, &rng);
  TrainConfig tc_warm;
  tc_warm.epochs = 8;
  tc_warm.best_k = 0;
  Trainer(tc_warm).Train(&base, &warm_store, train, test);

  // Phase 2a: fine-tune the extended model from the warm store.
  DeepSDModel warm_model(Config(true), DeepSDModel::Mode::kBasic, &warm_store,
                         &rng);
  TrainConfig tc_short;
  tc_short.epochs = 2;
  tc_short.best_k = 0;
  TrainResult warm =
      Trainer(tc_short).Train(&warm_model, &warm_store, train, test);

  // Phase 2b: train the extended model from scratch for the same 2 epochs.
  nn::ParameterStore cold_store;
  util::Rng rng2(3);
  DeepSDModel cold_model(Config(true), DeepSDModel::Mode::kBasic, &cold_store,
                         &rng2);
  TrainResult cold =
      Trainer(tc_short).Train(&cold_model, &cold_store, train, test);

  // The fine-tuned run starts from trained features (and the new residual
  // branches start as identities), so it must begin no worse than the cold
  // start on both training loss and evaluation error (Fig 16 shape).
  EXPECT_LT(warm.history.front().train_loss,
            cold.history.front().train_loss);
  EXPECT_LT(warm.history.front().eval_rmse,
            cold.history.front().eval_rmse * 1.05);
}

TEST_F(FinetuneTest, FreezingOldBlocksTrainsOnlyNewOnes) {
  nn::ParameterStore store;
  util::Rng rng(4);
  DeepSDModel base(Config(false), DeepSDModel::Mode::kBasic, &store, &rng);
  AssemblerSource train(assembler_.get(), train_items_, false);
  AssemblerSource test(assembler_.get(), test_items_, false);
  TrainConfig tc;
  tc.epochs = 2;
  tc.best_k = 0;
  Trainer(tc).Train(&base, &store, train, test);

  DeepSDModel extended(Config(true), DeepSDModel::Mode::kBasic, &store, &rng);
  // Freeze everything except the new environment blocks.
  for (auto& p : store.parameters()) p->frozen = true;
  store.SetFrozen(DeepSDModel::kWeatherPrefix, false);
  store.SetFrozen(DeepSDModel::kTrafficPrefix, false);

  nn::Tensor sd_before = store.Find("sd.fc1.w")->value;
  nn::Tensor wc_before = store.Find("weather.fc1.w")->value;
  Trainer(tc).Train(&extended, &store, train, test);

  const nn::Tensor& sd_after = store.Find("sd.fc1.w")->value;
  for (size_t i = 0; i < sd_before.size(); ++i) {
    ASSERT_FLOAT_EQ(sd_after.flat()[i], sd_before.flat()[i]);
  }
  const nn::Tensor& wc_after = store.Find("weather.fc1.w")->value;
  double diff = 0;
  for (size_t i = 0; i < wc_before.size(); ++i) {
    diff += std::abs(wc_after.flat()[i] - wc_before.flat()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST_F(FinetuneTest, SaveLoadPreservesPredictions) {
  auto path = (std::filesystem::temp_directory_path() /
               ("deepsd_model_" + std::to_string(::getpid()) + ".dsar"))
                  .string();
  nn::ParameterStore store;
  util::Rng rng(5);
  DeepSDModel model(Config(true), DeepSDModel::Mode::kAdvanced, &store, &rng);
  AssemblerSource train(assembler_.get(), train_items_, true);
  AssemblerSource test(assembler_.get(), test_items_, true);
  TrainConfig tc;
  tc.epochs = 2;
  tc.best_k = 0;
  Trainer(tc).Train(&model, &store, train, test);
  std::vector<float> before = model.Predict(test);
  store::PackOptions pack;
  pack.encoding = store::ParamEncoding::kCompressed;
  ASSERT_TRUE(
      store::PackModelArtifact(model, store, nullptr, pack, path).ok());

  std::shared_ptr<const store::StoredModel> stored;
  ASSERT_TRUE(store::StoredModel::Open(path, &stored).ok());
  nn::ParameterStore store2;
  util::Rng rng2(999);  // different init — must be overwritten by the copy
  DeepSDModel model2(Config(true), DeepSDModel::Mode::kAdvanced, &store2,
                     &rng2);
  EXPECT_EQ(static_cast<size_t>(store2.CopyFrom(stored->params())),
            store2.parameters().size());
  std::vector<float> after = model2.Predict(test);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace core
}  // namespace deepsd
