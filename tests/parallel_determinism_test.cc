// Bit-identity of the data-parallel paths across thread counts: training,
// batched inference and live serving must produce byte-for-byte the same
// results with --threads 1 and --threads 4 (docs/parallelism.md).

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "nn/kernels.h"
#include "serving/online_predictor.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace core {
namespace {

constexpr int kL = 6;

/// Everything a training run produces that determinism must cover.
struct RunOutput {
  std::unique_ptr<nn::ParameterStore> store;
  TrainResult result;
  std::vector<float> preds;
};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_kernel_mode_ = nn::kernels::kernel_mode();
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 911);
    feature::FeatureConfig fc;
    fc.window = kL;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    train_items_ = data::MakeItems(ds_, 0, 10, 400, 1300, 60);
    test_items_ = data::MakeItems(ds_, 10, 12, 450, 1290, 120);
  }

  void TearDown() override {
    EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(1).ok());
    nn::kernels::SetKernelMode(saved_kernel_mode_);
  }

  DeepSDConfig Config() const {
    DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.window = kL;
    return config;
  }

  RunOutput Run(int threads, DeepSDModel::Mode mode) {
    EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(threads).ok());
    RunOutput out;
    out.store = std::make_unique<nn::ParameterStore>();
    util::Rng rng(5);
    DeepSDModel model(Config(), mode, out.store.get(), &rng);
    const bool advanced = mode == DeepSDModel::Mode::kAdvanced;
    AssemblerSource train(assembler_.get(), train_items_, advanced);
    AssemblerSource test(assembler_.get(), test_items_, advanced);
    TrainConfig tc;
    tc.epochs = 3;
    tc.best_k = 2;
    Trainer trainer(tc);
    out.result = trainer.Train(&model, out.store.get(), train, test);
    out.preds = model.Predict(test);
    return out;
  }

  /// Replays the dataset's events over [t-L, t) of `day` into the buffer,
  /// mimicking a live feed (same shape as ServingTest::Replay).
  void Replay(serving::OrderStreamBuffer* buffer, int day, int t) const {
    buffer->AdvanceTo(day, t > kL ? t - kL : 0);
    for (int ts = std::max(t - kL, 0); ts < t; ++ts) {
      data::ReplayMinute(ds_, day, ts, *buffer);
    }
    buffer->AdvanceTo(day, t);
  }

  static void ExpectBitIdentical(const RunOutput& a, const RunOutput& b) {
    // Final parameters, byte for byte.
    const auto& pa = a.store->parameters();
    const auto& pb = b.store->parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i]->name, pb[i]->name);
      ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
      EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                            pa[i]->value.size() * sizeof(float)),
                0)
          << "parameter diverged: " << pa[i]->name;
    }
    // Every per-epoch loss in the history, exactly.
    ASSERT_EQ(a.result.history.size(), b.result.history.size());
    for (size_t e = 0; e < a.result.history.size(); ++e) {
      EXPECT_EQ(a.result.history[e].train_loss, b.result.history[e].train_loss)
          << "epoch " << e;
      EXPECT_EQ(a.result.history[e].eval_rmse, b.result.history[e].eval_rmse)
          << "epoch " << e;
      EXPECT_EQ(a.result.history[e].eval_mae, b.result.history[e].eval_mae)
          << "epoch " << e;
    }
    EXPECT_EQ(a.result.final_eval_rmse, b.result.final_eval_rmse);
    // Post-training predictions, exactly.
    ASSERT_EQ(a.preds.size(), b.preds.size());
    for (size_t i = 0; i < a.preds.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a.preds[i], &b.preds[i], sizeof(float)), 0)
          << "prediction " << i;
    }
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::vector<data::PredictionItem> train_items_;
  std::vector<data::PredictionItem> test_items_;
  nn::kernels::KernelMode saved_kernel_mode_ = nn::kernels::KernelMode::kBlocked;
};

TEST_F(ParallelDeterminismTest, BasicTrainingBitIdenticalOneVsFourThreads) {
  RunOutput serial = Run(1, DeepSDModel::Mode::kBasic);
  RunOutput parallel = Run(4, DeepSDModel::Mode::kBasic);
  ExpectBitIdentical(serial, parallel);
}

TEST_F(ParallelDeterminismTest, AdvancedTrainingBitIdenticalOneVsFourThreads) {
  RunOutput serial = Run(1, DeepSDModel::Mode::kAdvanced);
  RunOutput parallel = Run(4, DeepSDModel::Mode::kAdvanced);
  ExpectBitIdentical(serial, parallel);
}

TEST_F(ParallelDeterminismTest, ThreeThreadsMatchesToo) {
  // An odd thread count exercises uneven chunk-to-worker layouts; the
  // decomposition must not care.
  RunOutput a = Run(1, DeepSDModel::Mode::kBasic);
  RunOutput b = Run(3, DeepSDModel::Mode::kBasic);
  ExpectBitIdentical(a, b);
}

TEST_F(ParallelDeterminismTest, KernelModesBitIdenticalAcrossThreadCounts) {
  // The determinism contract spans both axes at once: a naive-kernel
  // single-threaded run and a blocked-kernel three-threaded run must land
  // on byte-identical parameters, losses, and predictions
  // (docs/performance.md).
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kNaive);
  RunOutput naive = Run(1, DeepSDModel::Mode::kAdvanced);
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kBlocked);
  RunOutput blocked = Run(3, DeepSDModel::Mode::kAdvanced);
  ExpectBitIdentical(naive, blocked);
}

TEST_F(ParallelDeterminismTest, KernelModesBitIdenticalBasicMode) {
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kNaive);
  RunOutput naive = Run(1, DeepSDModel::Mode::kBasic);
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kBlocked);
  RunOutput blocked = Run(4, DeepSDModel::Mode::kBasic);
  ExpectBitIdentical(naive, blocked);
}

TEST_F(ParallelDeterminismTest, FeatureTablesBitIdenticalAcrossThreads) {
  feature::FeatureConfig fc;
  fc.window = kL;
  EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(1).ok());
  feature::FeatureAssembler serial(&ds_, fc, 0, 10);
  EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(4).ok());
  feature::FeatureAssembler parallel(&ds_, fc, 0, 10);
  const size_t all = data::kDaysPerWeek * 2 * kL;
  std::vector<float> a(3 * all), b(3 * all);
  for (int area = 0; area < ds_.num_areas(); ++area) {
    for (int t : {420, 600, 900}) {
      serial.History(area, /*day=*/-1, t, a.data(), a.data() + all,
                     a.data() + 2 * all);
      parallel.History(area, /*day=*/-1, t, b.data(), b.data() + all,
                       b.data() + 2 * all);
      for (int kind = 0; kind < 3; ++kind) {
        EXPECT_EQ(std::memcmp(a.data() + kind * all, b.data() + kind * all,
                              all * sizeof(float)),
                  0)
            << "kind " << kind << " area " << area << " t " << t;
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, PredictBitIdenticalForAnyChunking) {
  EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(1).ok());
  nn::ParameterStore store;
  util::Rng rng(5);
  DeepSDModel model(Config(), DeepSDModel::Mode::kBasic, &store, &rng);
  AssemblerSource test(assembler_.get(), test_items_, /*advanced=*/false);
  std::vector<float> base = model.Predict(test, /*batch_size=*/256);
  EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(4).ok());
  for (int batch : {1, 7, 64, 256}) {
    std::vector<float> p = model.Predict(test, batch);
    ASSERT_EQ(p.size(), base.size());
    EXPECT_EQ(std::memcmp(p.data(), base.data(), p.size() * sizeof(float)), 0)
        << "batch_size " << batch;
  }
}

TEST_F(ParallelDeterminismTest, ServingPredictAllAndBatchBitIdentical) {
  nn::ParameterStore store;
  util::Rng rng(5);
  DeepSDModel model(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);

  const std::vector<int> areas = deepsd::testing::AllAreas(ds_.num_areas());
  auto run = [&](int threads) {
    EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(threads).ok());
    serving::OnlinePredictor predictor(&model, assembler_.get());
    Replay(&predictor.buffer(), /*day=*/10, /*t=*/520);
    return predictor.PredictBatch(areas).gaps;
  };
  std::vector<float> serial = run(1);
  std::vector<float> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(float)),
            0);

  // PredictBatch over a subset must agree element-wise with all areas.
  EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(4).ok());
  serving::OnlinePredictor predictor(&model, assembler_.get());
  Replay(&predictor.buffer(), 10, 520);
  std::vector<float> all = predictor.PredictBatch(areas).gaps;
  std::vector<int> subset = {3, 0, 2};
  std::vector<float> batch = predictor.PredictBatch(subset).gaps;
  ASSERT_EQ(batch.size(), subset.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(batch[i], all[static_cast<size_t>(subset[i])]) << "slot " << i;
  }
}

}  // namespace
}  // namespace deepsd
}  // namespace core
