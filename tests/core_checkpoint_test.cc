// Trainer checkpoint/resume: round-trip fidelity, typed rejection of torn
// or bit-flipped files, and the headline fault-tolerance guarantee — a run
// resumed from any checkpoint lands on a final model bitwise identical to
// the uninterrupted run, at any thread count (docs/robustness.md).

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace core {
namespace {

constexpr int kL = 6;

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("deepsd_ck_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 911);
    feature::FeatureConfig fc;
    fc.window = kL;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    train_items_ = data::MakeItems(ds_, 0, 10, 400, 1300, 60);
    test_items_ = data::MakeItems(ds_, 10, 12, 450, 1290, 120);
  }

  void TearDown() override {
    EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(1).ok());
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  DeepSDConfig ModelConfig() const {
    DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.window = kL;
    return config;
  }

  TrainConfig TrainerConfig() const {
    TrainConfig tc;
    tc.epochs = 3;
    tc.best_k = 2;
    return tc;
  }

  /// One complete training run. When `checkpoint_path` is set, checkpoints
  /// are written (every `every` steps plus at epoch ends) and `on_epoch`
  /// can snapshot the live checkpoint file mid-run — the file-copy stands
  /// in for the state a SIGKILLed process leaves behind. When `resume` is
  /// non-null the run continues from it instead of starting fresh.
  struct RunOutput {
    std::unique_ptr<nn::ParameterStore> store;
    TrainResult result;
  };
  RunOutput Run(int threads, const std::string& checkpoint_path = "",
                uint64_t every = 0,
                const std::function<void(const EpochStats&)>& on_epoch = nullptr,
                const TrainerCheckpoint* resume = nullptr) {
    EXPECT_TRUE(util::ThreadPool::SetGlobalThreads(threads).ok());
    RunOutput out;
    out.store = std::make_unique<nn::ParameterStore>();
    util::Rng rng(5);
    DeepSDModel model(ModelConfig(), DeepSDModel::Mode::kAdvanced,
                      out.store.get(), &rng);
    AssemblerSource train(assembler_.get(), train_items_, /*advanced=*/true);
    AssemblerSource test(assembler_.get(), test_items_, /*advanced=*/true);
    TrainConfig tc = TrainerConfig();
    tc.checkpoint_path = checkpoint_path;
    tc.checkpoint_every_steps = every;
    Trainer trainer(tc);
    out.result = trainer.Train(&model, out.store.get(), train, test, on_epoch,
                               resume);
    return out;
  }

  static void ExpectBitIdentical(const RunOutput& a, const RunOutput& b) {
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
    ASSERT_EQ(a.result.history.size(), b.result.history.size());
    for (size_t e = 0; e < a.result.history.size(); ++e) {
      EXPECT_EQ(a.result.history[e].train_loss, b.result.history[e].train_loss)
          << "epoch " << e;
      EXPECT_EQ(a.result.history[e].eval_rmse, b.result.history[e].eval_rmse)
          << "epoch " << e;
    }
    EXPECT_EQ(a.result.final_eval_rmse, b.result.final_eval_rmse);
    EXPECT_EQ(a.result.best_eval_rmse, b.result.best_eval_rmse);
  }

  /// Runs with checkpointing, snapshots the checkpoint file when
  /// `copy_at_epoch` completes, and returns the snapshot path. With a
  /// step interval the snapshot is a genuine mid-epoch checkpoint (the
  /// epoch-end write for that epoch only happens after on_epoch returns).
  std::string CaptureCheckpoint(int copy_at_epoch, uint64_t every) {
    const std::string live = Path("live.ck");
    const std::string copy = Path("captured.ck");
    Run(2, live, every, [&](const EpochStats& s) {
      if (s.epoch == copy_at_epoch) {
        std::filesystem::copy_file(
            live, copy, std::filesystem::copy_options::overwrite_existing);
      }
    });
    return copy;
  }

  /// Loads + validates `path` against a fresh model, then resumes.
  RunOutput Resume(const std::string& path, int threads) {
    TrainerCheckpoint ck;
    EXPECT_TRUE(LoadCheckpoint(path, &ck).ok());
    return Run(threads, "", 0, nullptr, &ck);
  }

  std::filesystem::path dir_;
  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::vector<data::PredictionItem> train_items_;
  std::vector<data::PredictionItem> test_items_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  TrainerCheckpoint ck;
  ck.config.epochs = 9;
  ck.config.seed = 1234;
  ck.config.optimizer = TrainConfig::Optimizer::kSgdMomentum;
  ck.epoch = 4;
  ck.next_sample = 128;
  ck.step = 77;
  ck.rng_state = {1, 2, 3, 4};
  ck.order = {5, 3, 1, 0, 2, 4};
  ck.partial_loss_sum = 2.5;
  ck.partial_batches = 2;
  ck.history.push_back({0, 1.5, 0.7, 0.9, 1.0, 0.8, 0.2});
  nn::Tensor w(2, 3);
  w.at(0, 0) = 1.5f;
  w.at(1, 2) = -0.25f;
  ck.params.push_back({"fc/w", w});
  ck.adam_t = 77;
  ck.adam_m.push_back({"fc/w", nn::Tensor(2, 3)});
  ck.adam_v.push_back({"fc/w", nn::Tensor(2, 3)});
  ck.best.push_back({0.9, {{"fc/w", w}}});

  ASSERT_TRUE(SaveCheckpoint(ck, Path("rt.ck")).ok());
  TrainerCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(Path("rt.ck"), &out).ok());

  EXPECT_EQ(out.config.epochs, 9);
  EXPECT_EQ(out.config.seed, 1234u);
  EXPECT_EQ(out.config.optimizer, TrainConfig::Optimizer::kSgdMomentum);
  EXPECT_EQ(out.epoch, 4);
  EXPECT_EQ(out.next_sample, 128u);
  EXPECT_EQ(out.step, 77u);
  EXPECT_EQ(out.rng_state, (std::array<uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(out.order, (std::vector<uint64_t>{5, 3, 1, 0, 2, 4}));
  EXPECT_EQ(out.partial_loss_sum, 2.5);
  EXPECT_EQ(out.partial_batches, 2u);
  ASSERT_EQ(out.history.size(), 1u);
  EXPECT_EQ(out.history[0].train_loss, 1.5);
  ASSERT_EQ(out.params.size(), 1u);
  EXPECT_EQ(out.params[0].name, "fc/w");
  ASSERT_TRUE(out.params[0].value.SameShape(w));
  EXPECT_EQ(out.params[0].value.at(0, 0), 1.5f);
  EXPECT_EQ(out.params[0].value.at(1, 2), -0.25f);
  EXPECT_EQ(out.adam_t, 77);
  ASSERT_EQ(out.best.size(), 1u);
  EXPECT_EQ(out.best[0].rmse, 0.9);
  ASSERT_EQ(out.best[0].params.size(), 1u);
}

TEST_F(CheckpointTest, InputReferenceHistogramRoundTrips) {
  TrainerCheckpoint ck;
  ck.config.epochs = 1;
  ck.input_reference.bounds = {1.5f, 3.0f, 9.0f};
  ck.input_reference.counts = {10, 20, 30, 5};
  ASSERT_TRUE(SaveCheckpoint(ck, Path("ref.ck")).ok());
  TrainerCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(Path("ref.ck"), &out).ok());
  EXPECT_EQ(out.input_reference.bounds, ck.input_reference.bounds);
  EXPECT_EQ(out.input_reference.counts, ck.input_reference.counts);

  // An empty reference (the v1 state) roundtrips as empty.
  TrainerCheckpoint empty_ck;
  ASSERT_TRUE(SaveCheckpoint(empty_ck, Path("noref.ck")).ok());
  TrainerCheckpoint empty_out;
  empty_out.input_reference.bounds = {9.9f};  // must be overwritten
  empty_out.input_reference.counts = {1, 1};
  ASSERT_TRUE(LoadCheckpoint(Path("noref.ck"), &empty_out).ok());
  EXPECT_TRUE(empty_out.input_reference.empty());
}

TEST_F(CheckpointTest, CalibrationRoundTrips) {
  TrainerCheckpoint ck;
  ck.config.epochs = 1;
  ck.calibration.push_back({"fc1/w", 3.75f});
  ck.calibration.push_back({"fc2/w", 0.5f});
  ASSERT_TRUE(SaveCheckpoint(ck, Path("cal.ck")).ok());
  TrainerCheckpoint out;
  out.calibration.push_back({"stale", 9.0f});  // must be replaced
  ASSERT_TRUE(LoadCheckpoint(Path("cal.ck"), &out).ok());
  ASSERT_EQ(out.calibration.size(), 2u);
  EXPECT_EQ(out.calibration[0].name, "fc1/w");
  EXPECT_FLOAT_EQ(out.calibration[0].act_absmax, 3.75f);
  EXPECT_EQ(out.calibration[1].name, "fc2/w");
  EXPECT_FLOAT_EQ(out.calibration[1].act_absmax, 0.5f);

  // No calibration (an uncalibrated run) round-trips as empty.
  TrainerCheckpoint none;
  none.config.epochs = 1;
  ASSERT_TRUE(SaveCheckpoint(none, Path("nocal.ck")).ok());
  TrainerCheckpoint none_out;
  none_out.calibration.push_back({"stale", 1.0f});
  ASSERT_TRUE(LoadCheckpoint(Path("nocal.ck"), &none_out).ok());
  EXPECT_TRUE(none_out.calibration.empty());
}

TEST_F(CheckpointTest, PackedOrderRoundTripsExtremes) {
  TrainerCheckpoint ck;
  ck.config.epochs = 1;
  // Empty, single, wide-value, and all-zero orders cover every bit-width
  // branch of the packed encoding (bits 0, small, >32).
  const std::vector<std::vector<uint64_t>> orders = {
      {},
      {0},
      {0, 0, 0, 0},
      {7, 0, 3, 1, 6, 2, 5, 4},
      {(uint64_t{1} << 40) + 3, 17, 0, (uint64_t{1} << 40)},
  };
  for (size_t i = 0; i < orders.size(); ++i) {
    ck.order = orders[i];
    ASSERT_TRUE(SaveCheckpoint(ck, Path("ord.ck")).ok());
    TrainerCheckpoint out;
    ASSERT_TRUE(LoadCheckpoint(Path("ord.ck"), &out).ok());
    EXPECT_EQ(out.order, orders[i]) << "case " << i;
  }
}

TEST_F(CheckpointTest, BestSnapshotsCompressAgainstLiveParams) {
  // Best-k snapshots are usually a few optimizer steps away from the live
  // params, so ref-XOR against them must beat encoding each copy alone.
  auto make_ck = [](bool nearby) {
    TrainerCheckpoint ck;
    ck.config.epochs = 1;
    util::Rng rng(nearby ? 5u : 6u);
    nn::Tensor w(64, 64);
    for (float& v : w.flat()) v = rng.Uniform(-1.0f, 1.0f);
    ck.params.push_back({"w", w});
    for (int s = 0; s < 3; ++s) {
      nn::Tensor snap = w;
      if (nearby) {
        for (float& v : snap.flat()) v *= 1.0f + 1e-6f * (s + 1);
      } else {
        for (float& v : snap.flat()) v = rng.Uniform(-1.0f, 1.0f);
      }
      ck.best.push_back({0.5 + s, {{"w", snap}}});
    }
    return ck;
  };
  ASSERT_TRUE(SaveCheckpoint(make_ck(true), Path("near.ck")).ok());
  ASSERT_TRUE(SaveCheckpoint(make_ck(false), Path("far.ck")).ok());
  const auto near_size = std::filesystem::file_size(Path("near.ck"));
  const auto far_size = std::filesystem::file_size(Path("far.ck"));
  EXPECT_LT(near_size, far_size);
  // And the round-trip stays bit-exact through the ref-XOR path.
  TrainerCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(Path("near.ck"), &out).ok());
  TrainerCheckpoint ref = make_ck(true);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(0, std::memcmp(out.best[s].params[0].value.data(),
                             ref.best[s].params[0].value.data(),
                             sizeof(float) * 64 * 64));
  }
}

TEST_F(CheckpointTest, UnsupportedFutureVersionRejected) {
  TrainerCheckpoint ck;
  ck.config.epochs = 1;
  ASSERT_TRUE(SaveCheckpoint(ck, Path("ver.ck")).ok());
  std::vector<char> bytes = ReadAll(Path("ver.ck"));
  bytes[4] = 99;  // u32 version little-endian low byte, after "DSC1"
  WriteAll(Path("ver.ck"), bytes);
  TrainerCheckpoint out;
  util::Status st = LoadCheckpoint(Path("ver.ck"), &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
}

TEST_F(CheckpointTest, RetiredVersionRejected) {
  // v1/v2 checkpoints are no longer read: a v2 header is a typed error
  // naming the version, even though the CRC-sealed payload is intact.
  TrainerCheckpoint ck;
  ck.config.epochs = 1;
  ASSERT_TRUE(SaveCheckpoint(ck, Path("old.ck")).ok());
  std::vector<char> bytes = ReadAll(Path("old.ck"));
  bytes[4] = 2;  // u32 version little-endian low byte, after "DSC1"
  WriteAll(Path("old.ck"), bytes);
  TrainerCheckpoint out;
  util::Status st = LoadCheckpoint(Path("old.ck"), &out);
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("version 2"), std::string::npos)
      << st.ToString();
}

TEST_F(CheckpointTest, TrainerCapturesInputReferenceAtCheckpointTime) {
  std::string path = CaptureCheckpoint(/*copy_at_epoch=*/1, /*every=*/4);
  TrainerCheckpoint ck;
  ASSERT_TRUE(LoadCheckpoint(path, &ck).ok());
  // The trainer snapshots the training inputs' activity distribution so
  // serving-side PSI always has an anchor.
  ASSERT_FALSE(ck.input_reference.empty());
  EXPECT_EQ(ck.input_reference.counts.size(),
            ck.input_reference.bounds.size() + 1);
  EXPECT_GT(ck.input_reference.total(), 0u);
}

TEST_F(CheckpointTest, TruncationIsTypedErrorNeverCrash) {
  std::string path = CaptureCheckpoint(/*copy_at_epoch=*/1, /*every=*/4);
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  // Sweep cuts across the whole file, including header-only prefixes.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{4}, size_t{8}, size_t{16},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::vector<char> truncated(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    WriteAll(Path("cut.ck"), truncated);
    TrainerCheckpoint ck;
    util::Status st = LoadCheckpoint(Path("cut.ck"), &ck);
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
  }
}

TEST_F(CheckpointTest, BitFlipIsDetectedByChecksum) {
  std::string path = CaptureCheckpoint(/*copy_at_epoch=*/1, /*every=*/4);
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  // Flip single bits at several payload offsets; the CRC must catch every
  // one (it detects all single-bit errors by construction).
  for (size_t offset : {size_t{20}, size_t{100}, bytes.size() / 2,
                        bytes.size() - 5}) {
    std::vector<char> flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x10);
    WriteAll(Path("flip.ck"), flipped);
    TrainerCheckpoint ck;
    util::Status st = LoadCheckpoint(Path("flip.ck"), &ck);
    EXPECT_FALSE(st.ok()) << "flip at " << offset;
  }
}

TEST_F(CheckpointTest, ValidateResumeRejectsMismatchedConfig) {
  std::string path = CaptureCheckpoint(/*copy_at_epoch=*/1, /*every=*/4);
  TrainerCheckpoint ck;
  ASSERT_TRUE(LoadCheckpoint(path, &ck).ok());

  nn::ParameterStore store;
  util::Rng rng(5);
  DeepSDModel model(ModelConfig(), DeepSDModel::Mode::kAdvanced, &store, &rng);

  EXPECT_TRUE(ValidateResume(ck, TrainerConfig(), store).ok());

  TrainConfig other = TrainerConfig();
  other.seed = 99;
  util::Status st = ValidateResume(ck, other, store);
  EXPECT_EQ(st.code(), util::Status::Code::kFailedPrecondition);

  other = TrainerConfig();
  other.batch_size = 32;
  EXPECT_FALSE(ValidateResume(ck, other, store).ok());

  // A model with different parameters must be rejected too.
  nn::ParameterStore small_store;
  util::Rng rng2(5);
  DeepSDConfig small = ModelConfig();
  small.use_weather = false;
  small.use_traffic = false;
  DeepSDModel small_model(small, DeepSDModel::Mode::kAdvanced, &small_store,
                          &rng2);
  EXPECT_FALSE(ValidateResume(ck, TrainerConfig(), small_store).ok());
}

TEST_F(CheckpointTest, MidEpochResumeBitIdenticalAcrossThreadCounts) {
  // Reference: one uninterrupted run. The "crash" leg snapshots a genuine
  // mid-epoch checkpoint (step-interval 4 within epoch 1) and a fresh
  // process resumes from it — at 1, 3 and 4 threads the final parameters,
  // losses and RMSEs must all be bitwise identical to the reference.
  RunOutput reference = Run(1);
  std::string ck = CaptureCheckpoint(/*copy_at_epoch=*/1, /*every=*/4);
  for (int threads : {1, 3, 4}) {
    RunOutput resumed = Resume(ck, threads);
    ExpectBitIdentical(reference, resumed);
  }
}

TEST_F(CheckpointTest, EpochBoundaryResumeBitIdentical) {
  // With no step interval the live file holds the epoch-end checkpoint of
  // the previously completed epoch — the epoch-boundary resume path
  // (shuffle must re-run from the restored RNG state).
  RunOutput reference = Run(1);
  std::string ck = CaptureCheckpoint(/*copy_at_epoch=*/2, /*every=*/0);
  RunOutput resumed = Resume(ck, 3);
  ExpectBitIdentical(reference, resumed);
}

}  // namespace
}  // namespace core
}  // namespace deepsd
