#ifndef DEEPSD_DATA_DATASET_H_
#define DEEPSD_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/types.h"
#include "util/status.h"

namespace deepsd {
namespace data {

/// Immutable, indexed store of car-hailing orders plus environment records.
///
/// Orders are bucketed by (start_area, day, minute) so every feature the
/// paper defines — real-time supply-demand vectors (Def. 5), last-call
/// vectors (Def. 6), waiting-time vectors (Def. 7) and supply-demand gaps
/// (Def. 2) — can be computed with O(window) work. Gap queries are O(1) via
/// per-(area, day) prefix sums of invalid-order counts.
///
/// Build one with OrderDatasetBuilder; the dataset itself is immutable and
/// safe to share across threads.
class OrderDataset {
 public:
  int num_areas() const { return num_areas_; }
  int num_days() const { return num_days_; }
  size_t num_orders() const { return orders_.size(); }
  int num_passengers() const { return num_passengers_; }

  /// Day-of-week of day `d` (0=Monday .. 6=Sunday).
  int WeekId(int day) const { return (day + first_weekday_) % kDaysPerWeek; }
  /// Weekday of simulation day 0.
  int first_weekday() const { return first_weekday_; }

  /// Orders that start in `area` at exactly minute `ts` of `day`, in
  /// generation order. Empty span for out-of-range arguments.
  std::span<const Order> OrdersAt(int area, int day, int ts) const;
  /// Orders that start in `area` during [t_begin, t_end) of `day` (clamped
  /// to the day): the OrdersAt spans of those minutes, back to back, from
  /// one index lookup.
  std::span<const Order> OrdersInRange(int area, int day, int t_begin,
                                       int t_end) const;

  /// Number of valid orders starting in `area` at minute `ts` of `day`.
  int ValidCount(int area, int day, int ts) const;
  /// Number of invalid orders starting in `area` at minute `ts` of `day`.
  int InvalidCount(int area, int day, int ts) const;

  /// Supply-demand gap (Def. 2): invalid orders in [t, t + kGapWindow),
  /// clamped to the end of the day.
  int Gap(int area, int day, int t) const;

  /// Total invalid orders in [t_begin, t_end) of `day` in `area` (half-open,
  /// clamped to the day). O(1).
  int InvalidInRange(int area, int day, int t_begin, int t_end) const;
  /// Total valid orders in [t_begin, t_end), O(1).
  int ValidInRange(int area, int day, int t_begin, int t_end) const;

  /// Weather at minute `ts` of `day` (shared across areas). Out-of-range
  /// arguments return a default (type 0 / sunny) record.
  const WeatherRecord& WeatherAt(int day, int ts) const;

  /// Traffic condition of `area` at minute `ts` of `day`.
  const TrafficRecord& TrafficAt(int area, int day, int ts) const;

  bool has_weather() const { return !weather_.empty(); }
  bool has_traffic() const { return !traffic_.empty(); }

  /// All orders, sorted by (start_area, day, ts).
  const std::vector<Order>& orders() const { return orders_; }

 private:
  friend class OrderDatasetBuilder;
  friend util::Status LoadDataset(const std::string&, OrderDataset*);

  size_t BucketIndex(int area, int day, int ts) const {
    return (static_cast<size_t>(area) * num_days_ + day) * kMinutesPerDay + ts;
  }
  bool InRange(int area, int day, int ts) const {
    return area >= 0 && area < num_areas_ && day >= 0 && day < num_days_ &&
           ts >= 0 && ts < kMinutesPerDay;
  }
  void BuildIndex();

  int num_areas_ = 0;
  int num_days_ = 0;
  int num_passengers_ = 0;
  int first_weekday_ = 0;

  std::vector<Order> orders_;  // sorted by (start_area, day, ts)
  // offsets_[BucketIndex(a,d,ts)] .. offsets_[idx+1] index into orders_.
  std::vector<uint32_t> offsets_;
  // Prefix sums over minutes for O(1) range counts; laid out per (area, day)
  // with kMinutesPerDay+1 entries each.
  std::vector<uint32_t> valid_prefix_;
  std::vector<uint32_t> invalid_prefix_;

  std::vector<WeatherRecord> weather_;   // [day * 1440 + ts]
  std::vector<TrafficRecord> traffic_;   // [BucketIndex(a,d,ts)]
};

/// Accumulates orders / environment records and freezes them into an
/// OrderDataset. Orders may be added in any sequence.
class OrderDatasetBuilder {
 public:
  /// `first_weekday`: day-of-week of simulation day 0 (0=Monday).
  OrderDatasetBuilder(int num_areas, int num_days, int first_weekday = 0);

  void AddOrder(const Order& order);
  void AddWeather(const WeatherRecord& record);
  void AddTraffic(const TrafficRecord& record);

  /// Validates and freezes the accumulated data. On success `*out` owns the
  /// data and the builder is left empty.
  util::Status Build(OrderDataset* out);

 private:
  int num_areas_;
  int num_days_;
  int first_weekday_;
  std::vector<Order> orders_;
  std::vector<WeatherRecord> weather_;
  std::vector<TrafficRecord> traffic_;
};

/// Replays minute `ts` of `day` into `sink` as a live feed would deliver it:
/// per area its orders, then its traffic record (when the dataset has
/// traffic), then the citywide weather record (when it has weather). The
/// records are stamped with (area, day, ts). `Sink` is anything with the
/// AddOrder / AddTraffic / AddWeather surface. The clock is the caller's:
/// this never calls AdvanceTo.
template <typename Sink>
void ReplayMinute(const OrderDataset& dataset, int day, int ts, Sink& sink) {
  for (int a = 0; a < dataset.num_areas(); ++a) {
    for (const Order& o : dataset.OrdersAt(a, day, ts)) sink.AddOrder(o);
    if (dataset.has_traffic()) {
      TrafficRecord tr = dataset.TrafficAt(a, day, ts);
      tr.area = a;
      tr.day = day;
      tr.ts = ts;
      sink.AddTraffic(tr);
    }
  }
  if (dataset.has_weather()) {
    WeatherRecord w = dataset.WeatherAt(day, ts);
    w.day = day;
    w.ts = ts;
    sink.AddWeather(w);
  }
}

/// Generates prediction items following the paper's protocol (Sec VI-A).
///
/// Training: for each area and each day in [day_begin, day_end), one item
/// every `stride` minutes with t in [t_begin, t_end].
/// The paper uses t in [20, 1430], stride 5 => 283 items per area-day.
std::vector<PredictionItem> MakeItems(const OrderDataset& dataset,
                                      int day_begin, int day_end, int t_begin,
                                      int t_end, int stride);

/// Paper training protocol: every 5 minutes from 00:20 to 23:50.
std::vector<PredictionItem> MakeTrainItems(const OrderDataset& dataset,
                                           int day_begin, int day_end);

/// Paper test protocol: every 2 hours from 07:30 to 23:30.
std::vector<PredictionItem> MakeTestItems(const OrderDataset& dataset,
                                          int day_begin, int day_end);

}  // namespace data
}  // namespace deepsd

#endif  // DEEPSD_DATA_DATASET_H_
