#include "data/dataset.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace deepsd {
namespace data {

namespace {
const WeatherRecord kDefaultWeather{};
const TrafficRecord kDefaultTraffic{};
}  // namespace

std::span<const Order> OrderDataset::OrdersAt(int area, int day, int ts) const {
  if (!InRange(area, day, ts)) return {};
  size_t idx = BucketIndex(area, day, ts);
  uint32_t begin = offsets_[idx];
  uint32_t end = offsets_[idx + 1];
  return {orders_.data() + begin, orders_.data() + end};
}

std::span<const Order> OrderDataset::OrdersInRange(int area, int day,
                                                   int t_begin,
                                                   int t_end) const {
  if (area < 0 || area >= num_areas_ || day < 0 || day >= num_days_) return {};
  t_begin = std::clamp(t_begin, 0, kMinutesPerDay);
  t_end = std::clamp(t_end, 0, kMinutesPerDay);
  if (t_end <= t_begin) return {};
  // Buckets are laid out minute-major per (area, day), so minute 1440 of a
  // day indexes the next day's first bucket: a valid end offset.
  const uint32_t begin = offsets_[BucketIndex(area, day, t_begin)];
  const uint32_t end = offsets_[BucketIndex(area, day, t_end)];
  return {orders_.data() + begin, orders_.data() + end};
}

int OrderDataset::ValidCount(int area, int day, int ts) const {
  return ValidInRange(area, day, ts, ts + 1);
}

int OrderDataset::InvalidCount(int area, int day, int ts) const {
  return InvalidInRange(area, day, ts, ts + 1);
}

int OrderDataset::Gap(int area, int day, int t) const {
  return InvalidInRange(area, day, t, t + kGapWindow);
}

int OrderDataset::InvalidInRange(int area, int day, int t_begin,
                                 int t_end) const {
  if (area < 0 || area >= num_areas_ || day < 0 || day >= num_days_) return 0;
  t_begin = std::clamp(t_begin, 0, kMinutesPerDay);
  t_end = std::clamp(t_end, 0, kMinutesPerDay);
  if (t_end <= t_begin) return 0;
  size_t base = (static_cast<size_t>(area) * num_days_ + day) *
                (kMinutesPerDay + 1);
  return static_cast<int>(invalid_prefix_[base + t_end] -
                          invalid_prefix_[base + t_begin]);
}

int OrderDataset::ValidInRange(int area, int day, int t_begin, int t_end) const {
  if (area < 0 || area >= num_areas_ || day < 0 || day >= num_days_) return 0;
  t_begin = std::clamp(t_begin, 0, kMinutesPerDay);
  t_end = std::clamp(t_end, 0, kMinutesPerDay);
  if (t_end <= t_begin) return 0;
  size_t base = (static_cast<size_t>(area) * num_days_ + day) *
                (kMinutesPerDay + 1);
  return static_cast<int>(valid_prefix_[base + t_end] -
                          valid_prefix_[base + t_begin]);
}

const WeatherRecord& OrderDataset::WeatherAt(int day, int ts) const {
  size_t idx = static_cast<size_t>(day) * kMinutesPerDay + ts;
  if (day < 0 || day >= num_days_ || ts < 0 || ts >= kMinutesPerDay ||
      idx >= weather_.size()) {
    return kDefaultWeather;
  }
  return weather_[idx];
}

const TrafficRecord& OrderDataset::TrafficAt(int area, int day, int ts) const {
  if (!InRange(area, day, ts) || traffic_.empty()) return kDefaultTraffic;
  return traffic_[BucketIndex(area, day, ts)];
}

void OrderDataset::BuildIndex() {
  std::sort(orders_.begin(), orders_.end(),
            [](const Order& a, const Order& b) {
              if (a.start_area != b.start_area) return a.start_area < b.start_area;
              if (a.day != b.day) return a.day < b.day;
              return a.ts < b.ts;
            });

  size_t buckets = static_cast<size_t>(num_areas_) * num_days_ * kMinutesPerDay;
  offsets_.assign(buckets + 1, 0);
  for (const Order& o : orders_) {
    ++offsets_[BucketIndex(o.start_area, o.day, o.ts) + 1];
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];

  size_t rows = static_cast<size_t>(num_areas_) * num_days_;
  valid_prefix_.assign(rows * (kMinutesPerDay + 1), 0);
  invalid_prefix_.assign(rows * (kMinutesPerDay + 1), 0);
  for (int a = 0; a < num_areas_; ++a) {
    for (int d = 0; d < num_days_; ++d) {
      size_t base = (static_cast<size_t>(a) * num_days_ + d) *
                    (kMinutesPerDay + 1);
      uint32_t valid = 0, invalid = 0;
      for (int ts = 0; ts < kMinutesPerDay; ++ts) {
        for (const Order& o : OrdersAt(a, d, ts)) {
          if (o.valid) {
            ++valid;
          } else {
            ++invalid;
          }
        }
        valid_prefix_[base + ts + 1] = valid;
        invalid_prefix_[base + ts + 1] = invalid;
      }
    }
  }

  int max_pid = -1;
  for (const Order& o : orders_) max_pid = std::max(max_pid, o.passenger_id);
  num_passengers_ = max_pid + 1;
}

OrderDatasetBuilder::OrderDatasetBuilder(int num_areas, int num_days,
                                         int first_weekday)
    : num_areas_(num_areas),
      num_days_(num_days),
      first_weekday_(first_weekday) {
  DEEPSD_CHECK(num_areas > 0);
  DEEPSD_CHECK(num_days > 0);
  DEEPSD_CHECK(first_weekday >= 0 && first_weekday < kDaysPerWeek);
}

void OrderDatasetBuilder::AddOrder(const Order& order) {
  orders_.push_back(order);
}

void OrderDatasetBuilder::AddWeather(const WeatherRecord& record) {
  weather_.push_back(record);
}

void OrderDatasetBuilder::AddTraffic(const TrafficRecord& record) {
  traffic_.push_back(record);
}

util::Status OrderDatasetBuilder::Build(OrderDataset* out) {
  for (const Order& o : orders_) {
    if (o.start_area < 0 || o.start_area >= num_areas_ || o.dest_area < 0 ||
        o.dest_area >= num_areas_) {
      return util::Status::InvalidArgument(
          util::StrFormat("order area out of range: start=%d dest=%d (N=%d)",
                          o.start_area, o.dest_area, num_areas_));
    }
    if (o.day < 0 || o.day >= num_days_) {
      return util::Status::InvalidArgument(
          util::StrFormat("order day out of range: %d", o.day));
    }
    if (o.ts < 0 || o.ts >= kMinutesPerDay) {
      return util::Status::InvalidArgument(
          util::StrFormat("order timeslot out of range: %d", o.ts));
    }
    if (o.passenger_id < 0) {
      return util::Status::InvalidArgument("negative passenger id");
    }
  }

  *out = OrderDataset();
  out->num_areas_ = num_areas_;
  out->num_days_ = num_days_;
  out->first_weekday_ = first_weekday_;
  out->orders_ = std::move(orders_);

  if (!weather_.empty()) {
    out->weather_.assign(static_cast<size_t>(num_days_) * kMinutesPerDay,
                         WeatherRecord{});
    for (const WeatherRecord& w : weather_) {
      if (w.day < 0 || w.day >= num_days_ || w.ts < 0 || w.ts >= kMinutesPerDay) {
        return util::Status::InvalidArgument("weather record out of range");
      }
      out->weather_[static_cast<size_t>(w.day) * kMinutesPerDay + w.ts] = w;
    }
  }
  if (!traffic_.empty()) {
    out->traffic_.assign(
        static_cast<size_t>(num_areas_) * num_days_ * kMinutesPerDay,
        TrafficRecord{});
    for (const TrafficRecord& t : traffic_) {
      if (t.area < 0 || t.area >= num_areas_ || t.day < 0 ||
          t.day >= num_days_ || t.ts < 0 || t.ts >= kMinutesPerDay) {
        return util::Status::InvalidArgument("traffic record out of range");
      }
      out->traffic_[out->BucketIndex(t.area, t.day, t.ts)] = t;
    }
  }

  out->BuildIndex();
  orders_.clear();
  weather_.clear();
  traffic_.clear();
  return util::Status::OK();
}

std::vector<PredictionItem> MakeItems(const OrderDataset& dataset,
                                      int day_begin, int day_end, int t_begin,
                                      int t_end, int stride) {
  std::vector<PredictionItem> items;
  day_begin = std::max(day_begin, 0);
  day_end = std::min(day_end, dataset.num_days());
  for (int a = 0; a < dataset.num_areas(); ++a) {
    for (int d = day_begin; d < day_end; ++d) {
      for (int t = t_begin; t <= t_end; t += stride) {
        PredictionItem item;
        item.area = a;
        item.day = d;
        item.t = t;
        item.week_id = dataset.WeekId(d);
        item.gap = static_cast<float>(dataset.Gap(a, d, t));
        items.push_back(item);
      }
    }
  }
  return items;
}

std::vector<PredictionItem> MakeTrainItems(const OrderDataset& dataset,
                                           int day_begin, int day_end) {
  // 00:20 .. 23:50 every 5 minutes -> 283 items per area-day (paper VI-A).
  return MakeItems(dataset, day_begin, day_end, 20, 1430, 5);
}

std::vector<PredictionItem> MakeTestItems(const OrderDataset& dataset,
                                          int day_begin, int day_end) {
  // 07:30 .. 23:30 every 2 hours -> 9 items per area-day (paper VI-A).
  return MakeItems(dataset, day_begin, day_end, 450, 1410, 120);
}

}  // namespace data
}  // namespace deepsd
