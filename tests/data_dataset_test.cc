#include "src/data/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "tests/test_util.h"

namespace deepsd {
namespace data {
namespace {

TEST(DatasetTest, CountsMatchHandBuiltOrders) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  EXPECT_EQ(ds.num_areas(), 2);
  EXPECT_EQ(ds.num_days(), 3);
  EXPECT_EQ(ds.num_orders(), 11u);

  // Minute 100, area 0, day 0 has: pid 100 invalid + pid 101 valid.
  EXPECT_EQ(ds.ValidCount(0, 0, 100), 1);
  EXPECT_EQ(ds.InvalidCount(0, 0, 100), 1);
  EXPECT_EQ(ds.OrdersAt(0, 0, 100).size(), 2u);
  EXPECT_EQ(ds.ValidCount(0, 0, 105), 1);
  EXPECT_EQ(ds.InvalidCount(0, 0, 102), 1);
  EXPECT_EQ(ds.ValidCount(0, 0, 999), 0);
}

TEST(DatasetTest, GapIsInvalidOrdersInTenMinuteWindow) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  // Window [100, 110): invalid at 100, 102, 103 → gap 3.
  EXPECT_EQ(ds.Gap(0, 0, 100), 3);
  // Window [103, 113): invalid at 103 → 1.
  EXPECT_EQ(ds.Gap(0, 0, 103), 1);
  // Window [106, 116): none.
  EXPECT_EQ(ds.Gap(0, 0, 106), 0);
  // Area 1 day 0: invalid at 110.
  EXPECT_EQ(ds.Gap(1, 0, 105), 1);
  EXPECT_EQ(ds.Gap(1, 0, 111), 0);
}

TEST(DatasetTest, RangeCountsClampToDay) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  EXPECT_EQ(ds.InvalidInRange(0, 0, -50, kMinutesPerDay + 50), 3);
  EXPECT_EQ(ds.ValidInRange(0, 0, 0, kMinutesPerDay), 3);
  EXPECT_EQ(ds.ValidInRange(0, 0, 200, 100), 0);  // empty range
}

TEST(DatasetTest, OutOfRangeQueriesAreZero) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  EXPECT_EQ(ds.ValidCount(-1, 0, 100), 0);
  EXPECT_EQ(ds.ValidCount(5, 0, 100), 0);
  EXPECT_EQ(ds.ValidCount(0, 9, 100), 0);
  EXPECT_EQ(ds.Gap(0, 0, 1439), 0);
  EXPECT_TRUE(ds.OrdersAt(0, 0, -5).empty());
}

TEST(DatasetTest, WeekIdRespectsFirstWeekday) {
  OrderDatasetBuilder builder(1, 10, /*first_weekday=*/5);  // day 0 = Saturday
  Order o;
  o.day = 0;
  o.ts = 0;
  o.passenger_id = 0;
  builder.AddOrder(o);
  OrderDataset ds;
  ASSERT_TRUE(builder.Build(&ds).ok());
  EXPECT_EQ(ds.WeekId(0), 5);
  EXPECT_EQ(ds.WeekId(1), 6);
  EXPECT_EQ(ds.WeekId(2), 0);  // wraps to Monday
  EXPECT_EQ(ds.WeekId(9), 0);
}

TEST(DatasetTest, WeatherAndTrafficLookup) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  ASSERT_TRUE(ds.has_weather());
  ASSERT_TRUE(ds.has_traffic());
  EXPECT_EQ(ds.WeatherAt(0, 100).type, 3);  // rain window
  EXPECT_EQ(ds.WeatherAt(0, 200).type, 0);
  EXPECT_FLOAT_EQ(ds.WeatherAt(1, 100).temperature, 15.0f);
  const TrafficRecord& t = ds.TrafficAt(1, 2, 700);
  EXPECT_EQ(t.level_counts[0], 5);
  EXPECT_EQ(t.level_counts[3], 65);
  // Out of range falls back to default records.
  EXPECT_EQ(ds.WeatherAt(99, 0).type, 0);
  EXPECT_EQ(ds.TrafficAt(99, 0, 0).level_counts[1], 0);
}

TEST(DatasetTest, BuilderRejectsBadOrders) {
  {
    OrderDatasetBuilder b(2, 2);
    Order o;
    o.start_area = 7;
    b.AddOrder(o);
    OrderDataset ds;
    EXPECT_FALSE(b.Build(&ds).ok());
  }
  {
    OrderDatasetBuilder b(2, 2);
    Order o;
    o.ts = kMinutesPerDay;
    b.AddOrder(o);
    OrderDataset ds;
    EXPECT_FALSE(b.Build(&ds).ok());
  }
  {
    OrderDatasetBuilder b(2, 2);
    Order o;
    o.day = -1;
    b.AddOrder(o);
    OrderDataset ds;
    EXPECT_FALSE(b.Build(&ds).ok());
  }
  {
    OrderDatasetBuilder b(2, 2);
    Order o;
    o.passenger_id = -3;
    b.AddOrder(o);
    OrderDataset ds;
    EXPECT_FALSE(b.Build(&ds).ok());
  }
}

TEST(DatasetTest, PrefixSumsConsistentWithPerMinuteCounts) {
  sim::SimSummary summary;
  OrderDataset ds = deepsd::testing::MakeSmallCity(3, 4, 5, &summary);
  for (int a = 0; a < ds.num_areas(); ++a) {
    for (int d = 0; d < ds.num_days(); ++d) {
      int valid = 0, invalid = 0;
      for (int ts = 200; ts < 300; ++ts) {
        valid += ds.ValidCount(a, d, ts);
        invalid += ds.InvalidCount(a, d, ts);
      }
      EXPECT_EQ(ds.ValidInRange(a, d, 200, 300), valid);
      EXPECT_EQ(ds.InvalidInRange(a, d, 200, 300), invalid);
    }
  }
}

TEST(DatasetTest, OrdersInRangeIsTheMinuteSpansBackToBack) {
  OrderDataset ds = deepsd::testing::MakeSmallCity(3, 4, 7);
  const int last_area = ds.num_areas() - 1, last_day = ds.num_days() - 1;
  struct Query {
    int area, day, t_begin, t_end;
  };
  // Interior windows, windows clamped at either end of the day, and the
  // last (area, day), whose end is the index's final offset.
  const Query queries[] = {{0, 1, 600, 620},
                           {1, 2, -15, 5},
                           {2, 0, 1425, 1450},
                           {last_area, last_day, 1420, 1440},
                           {last_area, last_day, 0, 1440},
                           {1, 1, 700, 700}};
  for (const Query& q : queries) {
    std::vector<const Order*> want;
    const int end = std::min(q.t_end, kMinutesPerDay);
    for (int ts = std::max(q.t_begin, 0); ts < end; ++ts) {
      for (const Order& o : ds.OrdersAt(q.area, q.day, ts)) want.push_back(&o);
    }
    std::span<const Order> got =
        ds.OrdersInRange(q.area, q.day, q.t_begin, q.t_end);
    ASSERT_EQ(got.size(), want.size()) << q.area << " " << q.day << " "
                                       << q.t_begin << " " << q.t_end;
    for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(&got[i], want[i]);
  }
  EXPECT_TRUE(ds.OrdersInRange(-1, 0, 0, 1440).empty());
  EXPECT_TRUE(ds.OrdersInRange(0, ds.num_days(), 0, 1440).empty());
}

TEST(ItemsTest, TrainItemGridMatchesPaperProtocol) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  std::vector<PredictionItem> items = MakeTrainItems(ds, 0, 2);
  // 283 items per area-day (00:20..23:50 every 5 min), 2 areas × 2 days.
  EXPECT_EQ(items.size(), 283u * 2 * 2);
  EXPECT_EQ(items.front().t, 20);
  int max_t = 0;
  for (const auto& it : items) max_t = std::max(max_t, it.t);
  EXPECT_EQ(max_t, 1430);
}

TEST(ItemsTest, TestItemGridMatchesPaperProtocol) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  std::vector<PredictionItem> items = MakeTestItems(ds, 2, 3);
  // 9 items per area-day (07:30..23:30 every 2h), 2 areas × 1 day.
  EXPECT_EQ(items.size(), 9u * 2);
  EXPECT_EQ(items.front().t, 450);
}

TEST(ItemsTest, PaperScaleItemCountsExact) {
  // Paper Sec VI-A: 58 areas × 24 train days × 283 items = 393,936; and the
  // test protocol gives 9 slots per area-day over 28 days.
  OrderDatasetBuilder builder(58, 52, /*first_weekday=*/1);
  Order o;
  builder.AddOrder(o);
  OrderDataset ds;
  ASSERT_TRUE(builder.Build(&ds).ok());
  EXPECT_EQ(MakeTrainItems(ds, 0, 24).size(), 393936u);
  EXPECT_EQ(MakeTestItems(ds, 24, 52).size(), 58u * 28 * 9);
}

TEST(ItemsTest, ItemsCarryGroundTruthGap) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  std::vector<PredictionItem> items = MakeItems(ds, 0, 1, 100, 100, 5);
  ASSERT_EQ(items.size(), 2u);  // one per area
  EXPECT_EQ(items[0].area, 0);
  EXPECT_FLOAT_EQ(items[0].gap, 3.0f);
  EXPECT_FLOAT_EQ(items[1].gap, 0.0f);  // area 1: invalid at 110 not in [100,110)
  EXPECT_EQ(items[0].week_id, ds.WeekId(0));
}

TEST(ItemsTest, DayRangeClamped) {
  OrderDataset ds = deepsd::testing::MakeMicroDataset();
  std::vector<PredictionItem> items = MakeItems(ds, -5, 99, 100, 100, 5);
  EXPECT_EQ(items.size(), 2u * 3);  // clamped to the 3 real days
}

}  // namespace
}  // namespace data
}  // namespace deepsd
