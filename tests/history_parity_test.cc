// Parity of the history pass and the live batch fill.
//
// HistoryParityTest: FeatureAssembler::History at every minute of the day
// equals, bit for bit, the plain reference average of the vectors.cc
// definitions over the reference days, with the own day left out for a
// reference day. LiveBatchParityTest: the rows a predictor fills straight
// into its batch answer exactly like AssembleLive + DeepSDModel::Predict,
// at every fallback tier, for both model modes and every kernel mode.
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/empirical_average.h"
#include "src/feature/feature_assembler.h"
#include "src/feature/vectors.h"
#include "src/nn/kernels.h"
#include "src/serving/online_predictor.h"
#include "tests/test_util.h"

namespace deepsd {
namespace {

constexpr int kL = 20;
constexpr int kRefDays = 14;

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class HistoryParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(3, 16, 4242);
    feature::FeatureConfig fc;
    assembler_ =
        std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, kRefDays);
  }

  /// The real-time vector of one signal from its vectors.cc definition.
  std::vector<float> Realtime(int kind, int area, int day, int t) const {
    switch (kind) {
      case 0: return feature::SupplyDemandVector(ds_, area, day, t, kL);
      case 1: return feature::LastCallVector(ds_, area, day, t, kL);
      default: return feature::WaitingTimeVector(ds_, area, day, t, kL);
    }
  }

  /// 7×2L reference history of one signal: per weekday the ascending-day
  /// float sum of the reference days' vectors over their count, then the
  /// own day (when it is a reference day with a sibling) taken back out.
  std::vector<float> Reference(int kind, int area, int day, int t) const {
    const size_t dim = 2 * kL;
    std::vector<float> out(data::kDaysPerWeek * dim, 0.0f);
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      float* h = out.data() + static_cast<size_t>(w) * dim;
      int n = 0;
      for (int d = 0; d < kRefDays; ++d) {
        if (ds_.WeekId(d) != w) continue;
        std::vector<float> v = Realtime(kind, area, d, t);
        for (size_t k = 0; k < dim; ++k) h[k] += v[k];
        ++n;
      }
      if (n == 0) continue;
      for (size_t k = 0; k < dim; ++k) h[k] /= static_cast<float>(n);
      if (day < kRefDays && ds_.WeekId(day) == w && n > 1) {
        std::vector<float> own = Realtime(kind, area, day, t);
        for (size_t k = 0; k < dim; ++k) {
          h[k] = (h[k] * static_cast<float>(n) - own[k]) /
                 static_cast<float>(n - 1);
        }
      }
    }
    return out;
  }

  /// Compares History at every minute 0..1440 of `day` for every area.
  void ExpectEveryMinute(int day) const {
    const size_t all = data::kDaysPerWeek * 2 * kL;
    std::vector<float> sd(all), lc(all), wt(all);
    size_t mismatches = 0;
    for (int area = 0; area < ds_.num_areas(); ++area) {
      for (int t = 0; t <= data::kMinutesPerDay; ++t) {
        assembler_->History(area, day, t, sd.data(), lc.data(), wt.data());
        const std::vector<float>* got[3] = {&sd, &lc, &wt};
        for (int kind = 0; kind < 3; ++kind) {
          if (!SameBits(*got[kind], Reference(kind, area, day, t))) {
            ++mismatches;
            ADD_FAILURE() << "kind " << kind << " area " << area << " day "
                          << day << " t " << t;
          }
        }
        if (mismatches > 5) return;
      }
    }
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
};

TEST_F(HistoryParityTest, ServedDayEveryMinuteMatchesReferenceAverage) {
  ExpectEveryMinute(/*day=*/15);
}

TEST_F(HistoryParityTest, ReferenceDayExcludesItselfEveryMinute) {
  // Day 9 shares its weekday with day 2, so its own window is left out.
  const int day = 9;
  ASSERT_GT(assembler_->RefDayCount(ds_.WeekId(day)), 1);
  ExpectEveryMinute(day);
}

TEST_F(HistoryParityTest, HistoricalVectorsIsTheServedDayHistory) {
  const size_t all = data::kDaysPerWeek * 2 * kL;
  std::vector<float> h[3] = {std::vector<float>(all), std::vector<float>(all),
                             std::vector<float>(all)};
  for (int t : {0, 7, 20, 703, 1439, 1440, 1449}) {
    assembler_->History(2, /*day=*/-1, t, h[0].data(), h[1].data(),
                        h[2].data());
    for (int kind = 0; kind < 3; ++kind) {
      // One signal asked for alone gives the bits of all three at once.
      std::vector<float> one(all);
      assembler_->History(2, /*day=*/-1, t, kind == 0 ? one.data() : nullptr,
                          kind == 1 ? one.data() : nullptr,
                          kind == 2 ? one.data() : nullptr);
      EXPECT_TRUE(SameBits(one, h[kind])) << "kind " << kind << " t " << t;
      EXPECT_TRUE(SameBits(h[kind], Reference(kind, 2, 15, t)))
          << "kind " << kind << " t " << t;
    }
  }
}

TEST_F(HistoryParityTest, PastMidnightMinutesCountZero) {
  // Live serving at 23:51..23:59 asks for H at t+10 = 1441..1449; minutes
  // at or past 1440 hold no orders in any signal. The last area's weekday-6
  // block is the last block of the sd table, so a read past the day runs
  // off its end.
  const int last_area = ds_.num_areas() - 1;
  for (int t = 1431; t <= 1439; ++t) {
    const int t10 = t + data::kGapWindow;
    const size_t all = data::kDaysPerWeek * 2 * kL;
    std::vector<float> h[3] = {std::vector<float>(all),
                               std::vector<float>(all),
                               std::vector<float>(all)};
    assembler_->History(last_area, /*day=*/-1, t10, h[0].data(), h[1].data(),
                        h[2].data());
    for (int kind = 0; kind < 3; ++kind) {
      EXPECT_TRUE(SameBits(h[kind], Reference(kind, last_area, 15, t10)))
          << "kind " << kind << " t+10 " << t10;
    }
    for (int w = 0; w < data::kDaysPerWeek; ++w) {
      std::vector<float> h = assembler_->HistoricalSd(last_area, w, t10);
      for (int l = 1; l <= t10 - data::kMinutesPerDay; ++l) {
        EXPECT_EQ(h[static_cast<size_t>(l - 1)], 0.0f) << "t+10 " << t10;
        EXPECT_EQ(h[static_cast<size_t>(kL + l - 1)], 0.0f) << "t+10 " << t10;
      }
    }
  }
}

/// Feeds of one served day with per-feed cutoffs, and the predictors and
/// models the batch fill is checked on.
class LiveBatchParityTest : public ::testing::Test {
 protected:
  static constexpr int kDay = 11;
  static constexpr int kT = 700;

  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(5, 12, 616);
    feature::FeatureConfig fc;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    baseline_.Fit(data::MakeItems(ds_, 0, 10, 20, 1430, 10));
  }

  /// Replays the last hour before kT, each feed stopping `*_cutoff`
  /// minutes early; a cutoff past the hour leaves the feed never seen.
  void Replay(serving::OrderStreamBuffer* buffer, int order_cutoff,
              int weather_cutoff, int traffic_cutoff) const {
    const int start = kT - 60;
    buffer->AdvanceTo(kDay, start);
    for (int ts = start; ts < kT; ++ts) {
      for (int a = 0; a < ds_.num_areas(); ++a) {
        if (ts < kT - order_cutoff) {
          for (const data::Order& o : ds_.OrdersAt(a, kDay, ts)) {
            buffer->AddOrder(o);
          }
        }
        if (ts < kT - traffic_cutoff) {
          data::TrafficRecord tr = ds_.TrafficAt(a, kDay, ts);
          tr.area = a;
          tr.day = kDay;
          tr.ts = ts;
          buffer->AddTraffic(tr);
        }
      }
      if (ts < kT - weather_cutoff) {
        data::WeatherRecord w = ds_.WeatherAt(kDay, ts);
        w.day = kDay;
        w.ts = ts;
        buffer->AddWeather(w);
      }
    }
    buffer->AdvanceTo(kDay, kT);
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  baselines::EmpiricalAverage baseline_;
};

TEST_F(LiveBatchParityTest, BatchRowsEqualAssembleLiveAtEveryTier) {
  struct Case {
    serving::FallbackTier tier;
    int order_cutoff, weather_cutoff, traffic_cutoff;
  };
  // Order feed never seen within the hour: kBaseline, served here without
  // a baseline attached, so it assembles at the empirical block.
  const Case cases[] = {
      {serving::FallbackTier::kNone, 0, 0, 0},
      {serving::FallbackTier::kZeroOrderHold, 0, 5, 4},
      {serving::FallbackTier::kEmpiricalBlock, 26, 0, 0},
      {serving::FallbackTier::kEmpiricalBlock, 0, 30, 0},
      {serving::FallbackTier::kBaseline, 100, 0, 0},
  };
  const nn::kernels::KernelMode kernel_modes[] = {
      nn::kernels::KernelMode::kNaive, nn::kernels::KernelMode::kBlocked,
      nn::kernels::KernelMode::kQuant};
  // 150 rows with repeats: several 16-row forward chunks, each row read
  // back from its own place.
  std::vector<int> areas;
  for (int i = 0; i < 150; ++i) areas.push_back((i * 7 + i / 5) % 5);

  for (core::DeepSDModel::Mode mode :
       {core::DeepSDModel::Mode::kBasic, core::DeepSDModel::Mode::kAdvanced}) {
    nn::ParameterStore store;
    util::Rng rng(9);
    core::DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.use_weather = true;
    config.use_traffic = true;
    // Raw outputs over random weights: a fresh model clamps most answers
    // to 0 and starts its residual branches (lc, wt, weather, traffic) at
    // zero, which would hide a wrong feature in any of them.
    config.clamp_nonnegative = false;
    core::DeepSDModel model(config, mode, &store, &rng);
    for (const std::unique_ptr<nn::Parameter>& p : store.parameters()) {
      nn::Tensor value(p->value.rows(), p->value.cols());
      for (float& v : value.flat()) {
        v = static_cast<float>(rng.Uniform(-0.3, 0.3));
      }
      p->InstallValue(std::move(value), 0.0f);
    }
    for (const Case& c : cases) {
      serving::OnlinePredictor predictor(&model, assembler_.get());
      Replay(&predictor.buffer(), c.order_cutoff, c.weather_cutoff,
             c.traffic_cutoff);
      ASSERT_EQ(predictor.CurrentTier(), c.tier);
      std::vector<feature::ModelInput> inputs;
      for (int a : areas) inputs.push_back(predictor.AssembleLive(a));
      for (nn::kernels::KernelMode km : kernel_modes) {
        nn::kernels::ScopedKernelMode scoped(km);
        const std::vector<float> want = model.Predict(inputs, 16);
        for (util::Deadline deadline : {util::Deadline::Infinite(),
                                        util::Deadline::AfterMillis(60'000)}) {
          serving::PredictResult r = predictor.PredictBatch(areas, deadline);
          EXPECT_FALSE(r.deadline_expired);
          EXPECT_TRUE(SameBits(r.gaps, want))
              << "mode " << static_cast<int>(mode) << " tier "
              << static_cast<int>(c.tier) << " kernel "
              << static_cast<int>(km);
        }
      }
    }
  }
}

TEST_F(LiveBatchParityTest, BaselineTierAnswersFromTheBaseline) {
  nn::ParameterStore store;
  util::Rng rng(10);
  core::DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  serving::OnlinePredictor predictor(&model, assembler_.get());
  predictor.set_baseline(&baseline_);
  Replay(&predictor.buffer(), 100, 0, 0);
  std::vector<int> areas = {3, 1};
  serving::PredictResult r =
      predictor.PredictBatch(areas, util::Deadline::Infinite());
  EXPECT_EQ(r.tier, serving::FallbackTier::kBaseline);
  ASSERT_EQ(r.gaps.size(), areas.size());
  for (size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(r.gaps[i], baseline_.Predict(areas[i], kT));
  }
}

}  // namespace
}  // namespace deepsd
