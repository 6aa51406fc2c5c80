#include "src/serving/online_predictor.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace deepsd {
namespace serving {
namespace {

constexpr int kL = 20;

/// An in-memory model version that ships a baseline with it.
class BaselinedVersion : public store::ModelVersion {
 public:
  BaselinedVersion(const core::DeepSDModel* model,
                   const baselines::EmpiricalAverage* baseline)
      : model_(model), baseline_(baseline) {}
  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return baseline_;
  }
  std::string version_id() const override { return "baselined"; }

 private:
  const core::DeepSDModel* model_;
  const baselines::EmpiricalAverage* baseline_;
};

/// One area's real-time vectors, read from one buffer snapshot without
/// zero-order hold.
struct AreaVectors {
  std::vector<float> sd, lc, wt;
  std::vector<int> weather_types;
};

AreaVectors ReadArea(const OrderStreamBuffer& buffer, int area) {
  OrderStreamBuffer::Snapshot snap;
  buffer.TakeSnapshot(&area, 1, -1, -1, &snap);
  AreaVectors v;
  v.sd.resize(2 * static_cast<size_t>(snap.window));
  v.lc.resize(v.sd.size());
  v.wt.resize(v.sd.size());
  snap.SupplyDemand(0, v.sd.data());
  snap.LastCallWaitingTime(0, v.lc.data(), v.wt.data());
  v.weather_types = snap.weather_types;
  return v;
}

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 616);
    feature::FeatureConfig fc;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
  }

  /// Replays everything the dataset knows about [t-L, t) of `day` into the
  /// buffer, mimicking a live feed.
  void Replay(OrderStreamBuffer* buffer, int day, int t) const {
    buffer->AdvanceTo(day, t > kL ? t - kL : 0);
    for (int ts = std::max(t - kL, 0); ts < t; ++ts) {
      data::ReplayMinute(ds_, day, ts, *buffer);
    }
    buffer->AdvanceTo(day, t);
  }

  std::vector<int> AllAreas() const {
    return deepsd::testing::AllAreas(ds_.num_areas());
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
};

TEST_F(ServingTest, BufferVectorsMatchOfflineDefinitions) {
  OrderStreamBuffer buffer(ds_.num_areas(), kL);
  const int day = 11, t = 900;
  Replay(&buffer, day, t);
  for (int a = 0; a < ds_.num_areas(); ++a) {
    const AreaVectors v = ReadArea(buffer, a);
    EXPECT_EQ(v.sd, feature::SupplyDemandVector(ds_, a, day, t, kL))
        << "area " << a;
    EXPECT_EQ(v.lc, feature::LastCallVector(ds_, a, day, t, kL));
    EXPECT_EQ(v.wt, feature::WaitingTimeVector(ds_, a, day, t, kL));
  }
}

TEST_F(ServingTest, EvictionDropsExpiredCalls) {
  OrderStreamBuffer buffer(1, 5);
  data::Order o;
  o.day = 0;
  o.ts = 100;
  o.passenger_id = 1;
  o.start_area = 0;
  buffer.AdvanceTo(0, 100);
  buffer.AddOrder(o);
  buffer.AdvanceTo(0, 103);
  EXPECT_EQ(buffer.buffered_orders(), 1u);
  float sum = 0;
  for (float v : ReadArea(buffer, 0).sd) sum += v;
  EXPECT_EQ(sum, 1.0f);
  buffer.AdvanceTo(0, 106);  // order now 6 minutes old, window 5
  EXPECT_EQ(buffer.buffered_orders(), 0u);
}

TEST_F(ServingTest, ClockNeverMovesBackward) {
  OrderStreamBuffer buffer(1, 5);
  buffer.AdvanceTo(2, 100);
  buffer.AdvanceTo(1, 500);  // ignored
  EXPECT_EQ(buffer.day(), 2);
  EXPECT_EQ(buffer.minute(), 100);
}

TEST_F(ServingTest, OutOfOrderArrivalsHandled) {
  OrderStreamBuffer buffer(1, 10);
  buffer.AdvanceTo(0, 100);
  data::Order a, b;
  a.day = b.day = 0;
  a.ts = 95;
  b.ts = 93;  // arrives after a but is older
  a.passenger_id = 1;
  b.passenger_id = 2;
  a.valid = b.valid = true;
  buffer.AddOrder(a);
  buffer.AddOrder(b);
  std::vector<float> v = ReadArea(buffer, 0).sd;
  EXPECT_EQ(v[100 - 95 - 1], 1.0f);
  EXPECT_EQ(v[100 - 93 - 1], 1.0f);
}

TEST_F(ServingTest, TooOldEventsIgnoredOnArrival) {
  OrderStreamBuffer buffer(1, 5);
  buffer.AdvanceTo(0, 100);
  data::Order o;
  o.day = 0;
  o.ts = 50;
  buffer.AddOrder(o);
  EXPECT_EQ(buffer.buffered_orders(), 0u);
}

TEST_F(ServingTest, LivePredictionsMatchOfflineBasic) {
  nn::ParameterStore store;
  util::Rng rng(1);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &store,
                          &rng);

  OnlinePredictor predictor(&model, assembler_.get());
  const int day = 11, t = 700;
  Replay(&predictor.buffer(), day, t);

  std::vector<float> live = predictor.PredictBatch(AllAreas()).gaps;
  std::vector<feature::ModelInput> offline_inputs;
  for (int a = 0; a < ds_.num_areas(); ++a) {
    data::PredictionItem item;
    item.area = a;
    item.day = day;
    item.t = t;
    item.week_id = ds_.WeekId(day);
    offline_inputs.push_back(assembler_->AssembleBasic(item));
  }
  std::vector<float> offline = model.Predict(offline_inputs);
  ASSERT_EQ(live.size(), offline.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], offline[i]) << "area " << i;
  }
}

TEST_F(ServingTest, LivePredictionsMatchOfflineAdvanced) {
  nn::ParameterStore store;
  util::Rng rng(2);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);

  OnlinePredictor predictor(&model, assembler_.get());
  const int day = 10, t = 1100;  // outside the reference period
  Replay(&predictor.buffer(), day, t);

  std::vector<float> live = predictor.PredictBatch(AllAreas()).gaps;
  std::vector<feature::ModelInput> offline_inputs;
  for (int a = 0; a < ds_.num_areas(); ++a) {
    data::PredictionItem item;
    item.area = a;
    item.day = day;
    item.t = t;
    item.week_id = ds_.WeekId(day);
    offline_inputs.push_back(assembler_->AssembleAdvanced(item));
  }
  std::vector<float> offline = model.Predict(offline_inputs);
  ASSERT_EQ(live.size(), offline.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i], offline[i]) << "area " << i;
  }
}

TEST_F(ServingTest, LiveFeaturesEqualOfflineAtEveryMinute) {
  // A served day (outside the reference period, so offline assembly
  // excludes no own day) fed minute by minute: at every minute in
  // [L, 1430], on the training grid and off it, each live feature field
  // equals the offline one bit for bit. Minutes whose feeds leave the
  // healthy tier are skipped: their inputs are degraded on purpose.
  nn::ParameterStore store;
  util::Rng rng(6);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  OnlinePredictor predictor(&model, assembler_.get());
  OrderStreamBuffer& buffer = predictor.buffer();
  const int day = 10;
  buffer.AdvanceTo(day, 0);

  using Field = std::vector<float> feature::ModelInput::*;
  const Field fields[] = {
      &feature::ModelInput::v_sd,   &feature::ModelInput::h_sd,
      &feature::ModelInput::h_sd10, &feature::ModelInput::v_lc,
      &feature::ModelInput::h_lc,   &feature::ModelInput::h_lc10,
      &feature::ModelInput::v_wt,   &feature::ModelInput::h_wt,
      &feature::ModelInput::h_wt10, &feature::ModelInput::weather_reals,
      &feature::ModelInput::v_tc};
  size_t compared = 0, differing = 0;
  for (int ts = 0; ts < 1430; ++ts) {
    data::ReplayMinute(ds_, day, ts, buffer);
    const int t = ts + 1;
    buffer.AdvanceTo(day, t);
    if (t < kL || predictor.CurrentTier() != FallbackTier::kNone) continue;

    for (int a = 0; a < ds_.num_areas(); ++a) {
      data::PredictionItem item;
      item.area = a;
      item.day = day;
      item.t = t;
      item.week_id = ds_.WeekId(day);
      const feature::ModelInput want = assembler_->AssembleAdvanced(item);
      const feature::ModelInput got = predictor.AssembleLive(a);
      ASSERT_EQ(got.area_id, a);
      ASSERT_EQ(got.time_id, t);
      ASSERT_EQ(got.week_id, item.week_id);
      for (Field f : fields) {
        const std::vector<float>& x = got.*f;
        const std::vector<float>& y = want.*f;
        ++compared;
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
          ++differing;
          ADD_FAILURE() << "area " << a << " t " << t;
        }
      }
      ++compared;
      if (got.weather_types != want.weather_types) {
        ++differing;
        ADD_FAILURE() << "weather types, area " << a << " t " << t;
      }
      if (differing > 10) return;
    }
  }
  EXPECT_GT(compared, 1000u * 12);
  EXPECT_EQ(differing, 0u);
}

TEST_F(ServingTest, LivePredictAllAtFiveToMidnight) {
  // At 23:55 the t+10 history covers 1440..1444, past the end of the day:
  // those lags count zero in the lag-indexed signals (sd, last-call), and
  // the live answer still equals the offline one.
  nn::ParameterStore store;
  util::Rng rng(7);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  OnlinePredictor predictor(&model, assembler_.get());
  const int day = 10, t = 1435;
  Replay(&predictor.buffer(), day, t);

  std::vector<float> live = predictor.PredictBatch(AllAreas()).gaps;
  std::vector<feature::ModelInput> offline_inputs;
  for (int a = 0; a < ds_.num_areas(); ++a) {
    data::PredictionItem item;
    item.area = a;
    item.day = day;
    item.t = t;
    item.week_id = ds_.WeekId(day);
    offline_inputs.push_back(assembler_->AssembleAdvanced(item));
    const feature::ModelInput in = predictor.AssembleLive(a);
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      for (int l = 1; l <= t + data::kGapWindow - data::kMinutesPerDay; ++l) {
        const size_t off = static_cast<size_t>(w) * 2 * kL;
        EXPECT_EQ(in.h_sd10[off + static_cast<size_t>(l - 1)], 0.0f);
        EXPECT_EQ(in.h_sd10[off + static_cast<size_t>(kL + l - 1)], 0.0f);
        EXPECT_EQ(in.h_lc10[off + static_cast<size_t>(l - 1)], 0.0f);
        EXPECT_EQ(in.h_lc10[off + static_cast<size_t>(kL + l - 1)], 0.0f);
      }
    }
  }
  std::vector<float> offline = model.Predict(offline_inputs);
  ASSERT_EQ(live.size(), offline.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(std::isfinite(live[i]));
    EXPECT_EQ(live[i], offline[i]) << "area " << i;
  }
}

TEST_F(ServingTest, PredictSingleAreaMatchesBatch) {
  nn::ParameterStore store;
  util::Rng rng(3);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &store,
                          &rng);
  OnlinePredictor predictor(&model, assembler_.get());
  Replay(&predictor.buffer(), 11, 800);
  std::vector<float> all = predictor.PredictBatch(AllAreas()).gaps;
  EXPECT_FLOAT_EQ(predictor.PredictBatch({2}).gaps[0], all[2]);
}

TEST_F(ServingTest, PredictBatchMatchesPredictAllSubset) {
  nn::ParameterStore store;
  util::Rng rng(4);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &store,
                          &rng);
  OnlinePredictor predictor(&model, assembler_.get());
  Replay(&predictor.buffer(), 11, 820);
  std::vector<float> all = predictor.PredictBatch(AllAreas()).gaps;
  std::vector<int> areas = {2, 0, 3};
  std::vector<float> batch = predictor.PredictBatch(areas).gaps;
  ASSERT_EQ(batch.size(), areas.size());
  for (size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(batch[i], all[static_cast<size_t>(areas[i])]) << "slot " << i;
  }
  EXPECT_TRUE(predictor.PredictBatch({}).gaps.empty());
}

TEST_F(ServingTest, InMemoryModelServesSequenceOneAndSwaps) {
  // The in-memory constructor serves its model as published sequence 1,
  // and SwapModel publishes over it like on any versioned predictor.
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  nn::ParameterStore store_a, store_b;
  util::Rng rng_a(8), rng_b(9);
  core::DeepSDModel a(config, core::DeepSDModel::Mode::kBasic, &store_a,
                      &rng_a);
  core::DeepSDModel b(config, core::DeepSDModel::Mode::kBasic, &store_b,
                      &rng_b);
  OnlinePredictor predictor(&a, assembler_.get());
  OnlinePredictor on_b(&b, assembler_.get());
  Replay(&predictor.buffer(), 11, 760);
  Replay(&on_b.buffer(), 11, 760);
  const std::vector<int> areas = AllAreas();

  const PredictResult first = predictor.PredictBatch(areas);
  EXPECT_EQ(first.model_sequence, 1u);
  EXPECT_EQ(predictor.current_model_sequence(), 1u);

  baselines::EmpiricalAverage baseline;
  baseline.Fit(data::MakeItems(ds_, 0, 10, 20, 1430, 10));
  ASSERT_TRUE(
      predictor.SwapModel(std::make_shared<BaselinedVersion>(&b, &baseline))
          .ok());
  const PredictResult second = predictor.PredictBatch(areas);
  EXPECT_EQ(second.model_sequence, 2u);
  EXPECT_EQ(second.gaps, on_b.PredictBatch(areas).gaps);
  EXPECT_NE(second.gaps, first.gaps);

  // CheapGaps answers from the version it resolves to: the current one
  // ships a baseline, sequence 1 (pinned explicitly) ships none and no
  // baseline was attached, so it answers 0.
  std::vector<float> want;
  for (int area : areas) want.push_back(baseline.Predict(area, 760));
  ASSERT_NE(want, std::vector<float>(areas.size(), 0.0f));
  EXPECT_EQ(predictor.CheapGaps(areas), want);
  const store::BorrowedVersion v1(&a);
  EXPECT_EQ(predictor.CheapGaps(areas, {&v1, 1}),
            std::vector<float>(areas.size(), 0.0f));
}

TEST_F(ServingTest, ConcurrentIngestAndSnapshotReaders) {
  // One writer advances the clock and feeds events while reader threads
  // hammer the snapshot accessors — the scenario the buffer's internal
  // mutex exists for. Run under TSAN in CI; here we assert the invariants
  // snapshots must keep even mid-ingestion.
  OrderStreamBuffer buffer(ds_.num_areas(), kL);
  buffer.AdvanceTo(11, 500);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        int area = r % ds_.num_areas();
        const AreaVectors v = ReadArea(buffer, area);
        if (v.sd.size() != 2 * static_cast<size_t>(kL) ||
            v.lc.size() != v.sd.size() || v.wt.size() != v.sd.size()) {
          violations.fetch_add(1);
        }
        // Each snapshot must be internally consistent (counts can never go
        // negative, whatever instant it was taken at).
        for (size_t i = 0; i < v.sd.size(); ++i) {
          if (v.sd[i] < 0 || v.lc[i] < 0 || v.wt[i] < 0) {
            violations.fetch_add(1);
          }
        }
        if (v.weather_types.size() != static_cast<size_t>(kL)) {
          violations.fetch_add(1);
        }
        buffer.buffered_orders();
      }
    });
  }

  for (int t = 500; t < 560; ++t) {
    data::ReplayMinute(ds_, 11, t, buffer);
    buffer.AdvanceTo(11, t + 1);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
  // After the writer finished, snapshots must equal the offline truth.
  EXPECT_EQ(ReadArea(buffer, 0).sd,
            feature::SupplyDemandVector(ds_, 0, 11, 560, kL));
}

TEST_F(ServingTest, ConcurrentPredictCallers) {
  nn::ParameterStore store;
  util::Rng rng(5);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &store,
                          &rng);
  OnlinePredictor predictor(&model, assembler_.get());
  Replay(&predictor.buffer(), 11, 700);

  const std::vector<int> areas = AllAreas();
  std::vector<float> expected = predictor.PredictBatch(areas).gaps;
  std::vector<std::vector<float>> got(4);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < got.size(); ++c) {
    callers.emplace_back(
        [&, c] { got[c] = predictor.PredictBatch(areas).gaps; });
  }
  for (auto& th : callers) th.join();
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c], expected) << "caller " << c;
  }
}

}  // namespace
}  // namespace serving
}  // namespace deepsd
