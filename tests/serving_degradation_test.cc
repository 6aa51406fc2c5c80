#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/empirical_average.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/serving/online_predictor.h"
#include "src/util/deadline.h"
#include "src/util/fault_injector.h"
#include "tests/test_util.h"

namespace deepsd {
namespace serving {
namespace {

constexpr int kL = 20;

/// Exercises the serving fallback ladder (docs/robustness.md): feed
/// staleness drives the tier, each tier keeps serving finite numbers, and
/// malformed or fault-injected events are absorbed, never fatal.
class ServingDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 616);
    feature::FeatureConfig fc;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    store_ = std::make_unique<nn::ParameterStore>();
    rng_ = std::make_unique<util::Rng>(1);
    core::DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.use_weather = true;
    config.use_traffic = true;
    model_ = std::make_unique<core::DeepSDModel>(
        config, core::DeepSDModel::Mode::kBasic, store_.get(), rng_.get());
  }

  void TearDown() override {
    // The injector is process-global; never leak faults into other tests.
    util::FaultInjector::Global().Disable();
  }

  /// Replays the dataset's feeds over the last ~hour of `day` up to t, but
  /// stops each feed early by its cutoff (minutes before t; 0 = fully
  /// fresh). Events older than the window still refresh feed freshness, so
  /// a cut-off feed looks stalled, not never-seen.
  void ReplayWithCutoffs(OrderStreamBuffer* buffer, int day, int t,
                         int order_cutoff, int weather_cutoff,
                         int traffic_cutoff) const {
    const int start = std::max(t - kL - 40, 0);
    buffer->AdvanceTo(day, start);
    for (int ts = start; ts < t; ++ts) {
      for (int a = 0; a < ds_.num_areas(); ++a) {
        if (ts < t - order_cutoff) {
          for (const data::Order& o : ds_.OrdersAt(a, day, ts)) {
            buffer->AddOrder(o);
          }
        }
        if (ts < t - traffic_cutoff) {
          data::TrafficRecord tr = ds_.TrafficAt(a, day, ts);
          tr.area = a;
          tr.day = day;
          tr.ts = ts;
          buffer->AddTraffic(tr);
        }
      }
      if (ts < t - weather_cutoff) {
        data::WeatherRecord w = ds_.WeatherAt(day, ts);
        w.day = day;
        w.ts = ts;
        buffer->AddWeather(w);
      }
    }
    buffer->AdvanceTo(day, t);
  }

  /// Every area with the per-call outcome: the tier assertions below read
  /// PredictResult::tier (the predictor-wide last-tier alias was removed —
  /// it was stompable under concurrency).
  PredictResult PredictAllTiered(const OnlinePredictor& predictor) const {
    return predictor.PredictBatch(
        deepsd::testing::AllAreas(ds_.num_areas()));
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::unique_ptr<nn::ParameterStore> store_;
  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<core::DeepSDModel> model_;
};

TEST_F(ServingDegradationTest, FreshFeedsServeTierNone) {
  OnlinePredictor predictor(model_.get(), assembler_.get());
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 0, 0, 0);
  EXPECT_EQ(predictor.CurrentTier(), FallbackTier::kNone);
  PredictResult r = PredictAllTiered(predictor);
  EXPECT_EQ(r.tier, FallbackTier::kNone);
  for (float p : r.gaps) EXPECT_TRUE(std::isfinite(p));
}

TEST_F(ServingDegradationTest, StaleWeatherTriggersZeroOrderHold) {
  OnlinePredictor predictor(model_.get(), assembler_.get());
  // Weather last seen 7 minutes ago: past env_fresh (2) but inside the
  // hold horizon (2 + 15). Orders and traffic stay fresh.
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 0, 7, 0);
  EXPECT_EQ(predictor.CurrentTier(), FallbackTier::kZeroOrderHold);

  PredictResult r = PredictAllTiered(predictor);
  EXPECT_EQ(r.tier, FallbackTier::kZeroOrderHold);
  for (float p : r.gaps) EXPECT_TRUE(std::isfinite(p));

  // The held assembly fills the trailing weather lags from the last
  // accepted record instead of the unknown encoding (type 0).
  feature::ModelInput in = predictor.AssembleLive(0);
  data::WeatherRecord last = ds_.WeatherAt(11, 700 - 8);
  EXPECT_EQ(in.weather_types.front(), last.type);  // lag 1
}

TEST_F(ServingDegradationTest, OrderStallFallsBackToEmpiricalBlock) {
  OnlinePredictor predictor(model_.get(), assembler_.get());
  const int day = 11, t = 700;
  // No order citywide for 26 minutes (> order_stall 20, < baseline 120);
  // weather and traffic keep flowing.
  ReplayWithCutoffs(&predictor.buffer(), day, t, 26, 0, 0);
  EXPECT_EQ(predictor.CurrentTier(), FallbackTier::kEmpiricalBlock);

  PredictResult r = PredictAllTiered(predictor);
  EXPECT_EQ(r.tier, FallbackTier::kEmpiricalBlock);
  for (float p : r.gaps) EXPECT_TRUE(std::isfinite(p));

  // The real-time supply-demand block is replaced by the day-of-week
  // empirical block the assembler serves for training.
  feature::ModelInput in = predictor.AssembleLive(0);
  std::vector<float> full(data::kDaysPerWeek * 2 * kL);
  assembler_->History(0, /*day=*/-1, t, full.data(), nullptr, nullptr);
  const size_t block = full.size() / data::kDaysPerWeek;
  const size_t off = static_cast<size_t>(ds_.WeekId(day)) * block;
  std::vector<float> expected(full.begin() + static_cast<long>(off),
                              full.begin() + static_cast<long>(off + block));
  assembler_->NormalizeCounts(expected.data(), expected.size());
  EXPECT_EQ(in.v_sd, expected);
}

TEST_F(ServingDegradationTest, DeadStreamServesBaseline) {
  baselines::EmpiricalAverage baseline;
  baseline.Fit(data::MakeItems(ds_, 0, 10, 20, 1430, 10));

  OnlinePredictor predictor(model_.get(), assembler_.get());
  predictor.set_baseline(&baseline);
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 0, 0, 0);
  // Then the whole stream dies for over two hours.
  predictor.AdvanceTo(11, 830);
  EXPECT_EQ(predictor.CurrentTier(), FallbackTier::kBaseline);

  PredictResult r = PredictAllTiered(predictor);
  EXPECT_EQ(r.tier, FallbackTier::kBaseline);
  ASSERT_EQ(r.gaps.size(), static_cast<size_t>(ds_.num_areas()));
  for (int a = 0; a < ds_.num_areas(); ++a) {
    EXPECT_FLOAT_EQ(r.gaps[static_cast<size_t>(a)], baseline.Predict(a, 830));
  }
}

TEST_F(ServingDegradationTest, WithoutBaselineLadderStopsAtEmpiricalBlock) {
  OnlinePredictor predictor(model_.get(), assembler_.get());
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 0, 0, 0);
  predictor.AdvanceTo(11, 830);
  EXPECT_EQ(predictor.CurrentTier(), FallbackTier::kBaseline);
  PredictResult r = PredictAllTiered(predictor);
  EXPECT_EQ(r.tier, FallbackTier::kEmpiricalBlock);
  for (float p : r.gaps) EXPECT_TRUE(std::isfinite(p));
}

TEST_F(ServingDegradationTest, DegradedPredictionsCounterTracksFallbacks) {
  obs::SetEnabled(true);
  obs::Counter* degraded = obs::MetricsRegistry::Global().GetCounter(
      "serving/degraded_predictions");
  const uint64_t before = degraded->value();

  OnlinePredictor predictor(model_.get(), assembler_.get());
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 26, 0, 0);
  PredictAllTiered(predictor);
  EXPECT_EQ(degraded->value(),
            before + static_cast<uint64_t>(ds_.num_areas()));
  obs::SetEnabled(false);
}

TEST_F(ServingDegradationTest, InjectedFaultsNeverProduceNonFinite) {
  util::FaultInjector::Config faults;
  faults.drop_event = 0.2;
  faults.delay_event = 0.2;
  faults.corrupt_event = 0.2;
  faults.seed = 7;
  util::FaultInjector::Global().Configure(faults);

  OnlinePredictor predictor(model_.get(), assembler_.get());
  OrderStreamBuffer& buffer = predictor.buffer();
  const int day = 11;
  buffer.AdvanceTo(day, 480);
  for (int ts = 480; ts < 560; ++ts) {
    data::ReplayMinute(ds_, day, ts, buffer);
    predictor.AdvanceTo(day, ts + 1);
    if ((ts + 1) % 10 == 0) {
      for (float p : PredictAllTiered(predictor).gaps) {
        EXPECT_TRUE(std::isfinite(p)) << "minute " << ts + 1;
      }
    }
  }

  util::FaultInjector::Counts counts = util::FaultInjector::Global().counts();
  EXPECT_GT(counts.dropped_events + counts.delayed_events +
                counts.corrupted_events,
            0u);
}

TEST_F(ServingDegradationTest, MalformedEventsRejectedNotFatal) {
  OrderStreamBuffer buffer(ds_.num_areas(), kL);
  buffer.AdvanceTo(11, 700);
  EXPECT_EQ(buffer.rejected_events(), 0u);

  data::Order bad_area;
  bad_area.day = 11;
  bad_area.ts = 699;
  bad_area.start_area = 999;
  buffer.AddOrder(bad_area);

  data::Order bad_ts;
  bad_ts.day = 11;
  bad_ts.ts = -5;
  bad_ts.start_area = 0;
  buffer.AddOrder(bad_ts);

  data::TrafficRecord bad_traffic;
  bad_traffic.area = -1;
  bad_traffic.day = 11;
  bad_traffic.ts = 699;
  buffer.AddTraffic(bad_traffic);

  data::WeatherRecord bad_weather;
  bad_weather.day = 11;
  bad_weather.ts = data::kMinutesPerDay + 3;
  buffer.AddWeather(bad_weather);

  EXPECT_EQ(buffer.rejected_events(), 4u);
  EXPECT_EQ(buffer.buffered_orders(), 0u);

  // A well-formed event right after is still accepted.
  data::Order good;
  good.day = 11;
  good.ts = 699;
  good.start_area = 0;
  buffer.AddOrder(good);
  EXPECT_EQ(buffer.buffered_orders(), 1u);
  EXPECT_EQ(buffer.rejected_events(), 4u);
}

TEST_F(ServingDegradationTest, ConcurrentFaultyIngestionWhilePredicting) {
  // Live-feed threads hammer the buffer through a lossy fault injector
  // (drops, delays, corruption) while other threads run deadline-carrying
  // PredictBatch calls. Whatever the interleaving, every answer must be
  // complete and finite and every expired call reported as baseline —
  // the TSAN job runs this test to certify the locking.
  ASSERT_TRUE(util::FaultInjector::Global()
                  .ConfigureFromSpec(
                      "drop_event=0.15,delay_event=0.15,corrupt_event=0.15,"
                      "seed=99")
                  .ok());
  OnlinePredictor predictor(model_.get(), assembler_.get());
  ReplayWithCutoffs(&predictor.buffer(), 11, 700, 0, 0, 0);
  std::vector<int> areas;
  for (int a = 0; a < ds_.num_areas(); ++a) areas.push_back(a);

  std::atomic<bool> stop{false};
  std::thread feeder([this, &predictor, &stop] {
    OrderStreamBuffer& buffer = predictor.buffer();
    int ts = 700;
    while (!stop.load(std::memory_order_relaxed)) {
      // Feed the (already-fault-filtered) day-11 tail minute by minute;
      // past the end of the day, keep re-sending the last minute so the
      // feeder runs as long as the predictors do.
      const int minute = std::min(ts, data::kMinutesPerDay - 1);
      data::ReplayMinute(ds_, 11, minute, buffer);
      if (ts < data::kMinutesPerDay - 1) {
        buffer.AdvanceTo(11, ts + 1);
      }
      ++ts;
    }
  });

  std::atomic<int> bad{0};
  std::vector<std::thread> predictors;
  for (int t = 0; t < 3; ++t) {
    predictors.emplace_back([&predictor, &areas, &bad, t] {
      for (int i = 0; i < 30; ++i) {
        const bool expire = (i + t) % 3 == 0;
        PredictResult r = predictor.PredictBatch(
            areas, expire ? util::Deadline::AtSteadyUs(1)
                          : util::Deadline::Infinite());
        if (r.gaps.size() != areas.size()) {
          bad.fetch_add(1);
          continue;
        }
        for (float g : r.gaps) {
          if (!std::isfinite(g)) bad.fetch_add(1);
        }
        if (expire && !r.deadline_expired) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : predictors) th.join();
  stop.store(true, std::memory_order_relaxed);
  feeder.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace serving
}  // namespace deepsd
