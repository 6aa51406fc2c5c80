#include "src/baselines/empirical_average.h"

#include <gtest/gtest.h>

namespace deepsd {
namespace baselines {
namespace {

data::PredictionItem Item(int area, int day, int t, float gap) {
  data::PredictionItem item;
  item.area = area;
  item.day = day;
  item.t = t;
  item.gap = gap;
  return item;
}

TEST(EmpiricalAverageTest, AveragesPerAreaAndTimeslot) {
  EmpiricalAverage avg;
  avg.Fit({Item(0, 0, 100, 2.0f), Item(0, 1, 100, 4.0f),
           Item(0, 0, 200, 10.0f), Item(1, 0, 100, 0.0f)});
  EXPECT_FLOAT_EQ(avg.Predict(0, 100), 3.0f);
  EXPECT_FLOAT_EQ(avg.Predict(0, 200), 10.0f);
  EXPECT_FLOAT_EQ(avg.Predict(1, 100), 0.0f);
}

TEST(EmpiricalAverageTest, FallsBackToAreaThenGlobalMean) {
  EmpiricalAverage avg;
  avg.Fit({Item(0, 0, 100, 2.0f), Item(0, 0, 200, 4.0f),
           Item(1, 0, 100, 10.0f)});
  // Unseen slot in a seen area → area mean.
  EXPECT_FLOAT_EQ(avg.Predict(0, 999), 3.0f);
  // Unseen area → global mean.
  EXPECT_FLOAT_EQ(avg.Predict(7, 100), 16.0f / 3);
}

TEST(EmpiricalAverageTest, EmptyFitPredictsZero) {
  EmpiricalAverage avg;
  avg.Fit({});
  EXPECT_FLOAT_EQ(avg.Predict(0, 0), 0.0f);
}

TEST(EmpiricalAverageTest, BatchPredictMatchesScalar) {
  EmpiricalAverage avg;
  std::vector<data::PredictionItem> train = {Item(0, 0, 100, 2.0f),
                                             Item(1, 0, 100, 6.0f)};
  avg.Fit(train);
  std::vector<data::PredictionItem> test = {Item(0, 5, 100, 0),
                                            Item(1, 5, 100, 0)};
  std::vector<float> preds = avg.Predict(test);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_FLOAT_EQ(preds[0], avg.Predict(0, 100));
  EXPECT_FLOAT_EQ(preds[1], avg.Predict(1, 100));
}

TEST(EmpiricalAverageTest, RefitClearsOldState) {
  EmpiricalAverage avg;
  avg.Fit({Item(0, 0, 100, 100.0f)});
  avg.Fit({Item(0, 0, 100, 2.0f)});
  EXPECT_FLOAT_EQ(avg.Predict(0, 100), 2.0f);
}

TEST(EmpiricalAverageTest, MinuteOutsideTheDayFallsToAreaMean) {
  // Neighbouring areas' cells sit next to each other in the tables, so a
  // minute just outside [0, kMinutesPerDay) must not read a neighbour's.
  EmpiricalAverage avg;
  avg.Fit({Item(0, 0, 0, 2.0f), Item(0, 0, data::kMinutesPerDay - 1, 4.0f),
           Item(1, 0, 0, 100.0f), Item(1, 0, 5, 200.0f)});
  EXPECT_FLOAT_EQ(avg.Predict(0, data::kMinutesPerDay), 3.0f);
  EXPECT_FLOAT_EQ(avg.Predict(1, -1), 150.0f);
  EXPECT_FLOAT_EQ(avg.Predict(1, data::kMinutesPerDay + 5), 150.0f);
}

}  // namespace
}  // namespace baselines
}  // namespace deepsd
