#include "src/feature/feature_assembler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"

namespace deepsd {
namespace feature {
namespace {

constexpr int kL = 20;

class AssemblerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(5, 16, 321);
    FeatureConfig fc;
    assembler_ = std::make_unique<FeatureAssembler>(&ds_, fc, 0, 14);
  }

  data::PredictionItem Item(int area, int day, int t) const {
    data::PredictionItem item;
    item.area = area;
    item.day = day;
    item.t = t;
    item.week_id = ds_.WeekId(day);
    item.gap = static_cast<float>(ds_.Gap(area, day, t));
    return item;
  }

  data::OrderDataset ds_;
  std::unique_ptr<FeatureAssembler> assembler_;
};

TEST_F(AssemblerTest, BasicInputShapes) {
  ModelInput in = assembler_->AssembleBasic(Item(1, 14, 600));
  EXPECT_EQ(in.area_id, 1);
  EXPECT_EQ(in.time_id, 600);
  EXPECT_EQ(in.week_id, ds_.WeekId(14));
  EXPECT_EQ(in.v_sd.size(), 2u * kL);
  EXPECT_TRUE(in.h_sd.empty());
  EXPECT_EQ(in.weather_types.size(), static_cast<size_t>(kL));
  EXPECT_EQ(in.weather_reals.size(), 2u * kL);
  EXPECT_EQ(in.v_tc.size(), 4u * kL);
  EXPECT_FLOAT_EQ(in.target_gap, static_cast<float>(ds_.Gap(1, 14, 600)));
}

TEST_F(AssemblerTest, AdvancedInputShapes) {
  ModelInput in = assembler_->AssembleAdvanced(Item(2, 15, 700));
  EXPECT_EQ(in.h_sd.size(), 7u * 2 * kL);
  EXPECT_EQ(in.h_sd10.size(), 7u * 2 * kL);
  EXPECT_EQ(in.v_lc.size(), 2u * kL);
  EXPECT_EQ(in.h_lc.size(), 7u * 2 * kL);
  EXPECT_EQ(in.v_wt.size(), 2u * kL);
  EXPECT_EQ(in.h_wt10.size(), 7u * 2 * kL);
}

TEST_F(AssemblerTest, OptionalNormalizationIsLog1p) {
  FeatureConfig norm_fc;
  norm_fc.normalize = true;
  FeatureAssembler norm(&ds_, norm_fc, 0, 14);
  data::PredictionItem item = Item(0, 14, 520);
  ModelInput norm_in = norm.AssembleBasic(item);
  // The default assembler is raw (paper-faithful).
  ModelInput raw_in = assembler_->AssembleBasic(item);
  for (size_t i = 0; i < raw_in.v_sd.size(); ++i) {
    EXPECT_NEAR(norm_in.v_sd[i], std::log1p(raw_in.v_sd[i]), 1e-5);
  }
}

TEST_F(AssemblerTest, HistoricalSdIsMeanOverMatchingWeekdays) {
  // Compare HistoricalSd against a direct average of the reference days.
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  const int area = 1, t = 800, w = 2;
  std::vector<float> expected(2 * kL, 0.0f);
  int n = 0;
  for (int d = 0; d < 14; ++d) {
    if (ds_.WeekId(d) != w) continue;
    std::vector<float> v = SupplyDemandVector(ds_, area, d, t, kL);
    for (size_t i = 0; i < v.size(); ++i) expected[i] += v[i];
    ++n;
  }
  ASSERT_GT(n, 0);
  for (float& x : expected) x /= static_cast<float>(n);
  EXPECT_EQ(raw.RefDayCount(w), n);

  std::vector<float> h = raw.HistoricalSd(area, w, t);
  ASSERT_EQ(h.size(), expected.size());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(h[i], expected[i], 1e-4) << "dim " << i;
  }
}

TEST_F(AssemblerTest, RefDayCountsSumToRefPeriod) {
  int total = 0;
  for (int w = 0; w < 7; ++w) total += assembler_->RefDayCount(w);
  EXPECT_EQ(total, 14);
}

TEST_F(AssemblerTest, OwnDayExcludedFromHistorical) {
  // For a day inside the reference period, the historical vector for that
  // day's weekday must not include the day's own window: reconstruct the
  // leave-one-out average and compare.
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  const int area = 0, day = 7, t = 900;
  const int w = ds_.WeekId(day);
  ASSERT_GT(raw.RefDayCount(w), 1);

  data::PredictionItem item;
  item.area = area;
  item.day = day;
  item.t = t;
  item.week_id = w;
  ModelInput in = raw.AssembleAdvanced(item);

  std::vector<float> expected(2 * kL, 0.0f);
  int n = 0;
  for (int d = 0; d < 14; ++d) {
    if (ds_.WeekId(d) != w || d == day) continue;
    std::vector<float> v = SupplyDemandVector(ds_, area, d, t, kL);
    for (size_t i = 0; i < v.size(); ++i) expected[i] += v[i];
    ++n;
  }
  for (float& x : expected) x /= static_cast<float>(n);

  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(in.h_sd[static_cast<size_t>(w) * 2 * kL + i], expected[i],
                1e-3);
  }
}

TEST_F(AssemblerTest, TestDayNotExcluded) {
  // Days outside the reference period use the plain average: h for week w
  // equals HistoricalSd directly.
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  const int area = 2, day = 15, t = 650;
  data::PredictionItem item;
  item.area = area;
  item.day = day;
  item.t = t;
  item.week_id = ds_.WeekId(day);
  ModelInput in = raw.AssembleAdvanced(item);
  for (int w = 0; w < 7; ++w) {
    std::vector<float> h = raw.HistoricalSd(area, w, t);
    for (size_t i = 0; i < h.size(); ++i) {
      EXPECT_FLOAT_EQ(in.h_sd[static_cast<size_t>(w) * 2 * kL + i], h[i]);
    }
  }
}

TEST_F(AssemblerTest, LcTableMatchesOnTheFlyAverage) {
  // Last-call historicals equal a direct average of the reference days'
  // LastCallVectors, on the paper's 5-minute item grid and off it alike.
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  const int area = 3, day = 15;
  data::PredictionItem item;
  item.area = area;
  item.day = day;
  item.week_id = ds_.WeekId(day);

  for (int t : {700, 703}) {
    item.t = t;
    ModelInput in = raw.AssembleAdvanced(item);
    ASSERT_EQ(in.h_lc.size(), 7u * 2 * kL);
    for (int w = 0; w < 7; ++w) {
      std::vector<float> expected(2 * kL, 0.0f);
      int n = 0;
      for (int d = 0; d < 14; ++d) {
        if (ds_.WeekId(d) != w) continue;
        std::vector<float> v = LastCallVector(ds_, area, d, t, kL);
        for (size_t i = 0; i < v.size(); ++i) expected[i] += v[i];
        ++n;
      }
      if (n == 0) continue;
      for (float& x : expected) x /= static_cast<float>(n);
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(in.h_lc[static_cast<size_t>(w) * 2 * kL + i],
                    expected[i], 1e-4)
            << "t " << t;
      }
    }
  }
}

TEST_F(AssemblerTest, EndOfDayGridCovered) {
  // The last training item (t = 1430) queries historicals at t+10 = 1440,
  // the day's last minute boundary. Both must be well-formed.
  data::PredictionItem item = Item(0, 15, 1430);
  ModelInput in = assembler_->AssembleAdvanced(item);
  EXPECT_EQ(in.h_sd10.size(), 7u * 2 * kL);
  // The last-call history at 1440 equals a direct average.
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  std::vector<float> h(data::kDaysPerWeek * 2 * kL);
  raw.History(0, /*day=*/-1, 1440, nullptr, h.data(), nullptr);
  std::vector<float> expected(2 * kL, 0.0f);
  int w = ds_.WeekId(0);
  int n = 0;
  for (int d = 0; d < 14; ++d) {
    if (ds_.WeekId(d) != w) continue;
    std::vector<float> v = LastCallVector(ds_, 0, d, 1440, kL);
    for (size_t i = 0; i < v.size(); ++i) expected[i] += v[i];
    ++n;
  }
  ASSERT_GT(n, 0);
  for (float& x : expected) x /= static_cast<float>(n);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(h[static_cast<size_t>(w) * 2 * kL + i], expected[i], 1e-4);
  }
}

TEST_F(AssemblerTest, FlatFeaturesShapeAndNames) {
  for (bool onehot : {false, true}) {
    std::vector<float> flat =
        assembler_->AssembleFlat(Item(1, 14, 600), onehot);
    EXPECT_EQ(static_cast<int>(flat.size()), assembler_->FlatDim(onehot));
    std::vector<std::string> names = assembler_->FlatFeatureNames(onehot);
    EXPECT_EQ(names.size(), flat.size());
  }
}

TEST_F(AssemblerTest, FlatOneHotEncodesIds) {
  data::PredictionItem item = Item(3, 14, 600);
  std::vector<float> flat = assembler_->AssembleFlat(item, true);
  // Area one-hot occupies the first num_areas dims.
  for (int a = 0; a < ds_.num_areas(); ++a) {
    EXPECT_FLOAT_EQ(flat[static_cast<size_t>(a)], a == 3 ? 1.0f : 0.0f);
  }
  // Time bin: t=600 → bin 60 with 10-minute bins.
  int time_bins = data::kMinutesPerDay / 10;
  float sum = 0;
  for (int b = 0; b < time_bins; ++b) {
    sum += flat[static_cast<size_t>(ds_.num_areas() + b)];
  }
  EXPECT_FLOAT_EQ(sum, 1.0f);
  EXPECT_FLOAT_EQ(flat[static_cast<size_t>(ds_.num_areas() + 60)], 1.0f);
}

TEST_F(AssemblerTest, WeatherLagsMatchDataset) {
  FeatureConfig raw_fc;
  raw_fc.normalize = false;
  FeatureAssembler raw(&ds_, raw_fc, 0, 14);
  data::PredictionItem item = Item(0, 14, 610);
  ModelInput in = raw.AssembleBasic(item);
  for (int l = 1; l <= kL; ++l) {
    const data::WeatherRecord& w = ds_.WeatherAt(14, 610 - l);
    EXPECT_EQ(in.weather_types[static_cast<size_t>(l - 1)], w.type);
    // Environment reals are standardized with reference-period statistics,
    // regardless of `normalize`.
    EXPECT_FLOAT_EQ(in.weather_reals[static_cast<size_t>(l - 1)],
                    raw.NormTemp(w.temperature));
    EXPECT_FLOAT_EQ(in.weather_reals[static_cast<size_t>(kL + l - 1)],
                    raw.NormPm(w.pm25));
  }
  // The statistics themselves are sane: standardizing the reference data
  // gives roughly zero-mean values.
  const FeatureAssembler::EnvStats& stats = raw.env_stats();
  EXPECT_GT(stats.temp_std, 0.0f);
  EXPECT_GT(stats.pm_std, 0.0f);
  EXPECT_GT(stats.pm_mean, 0.0f);
}

}  // namespace
}  // namespace feature
}  // namespace deepsd
