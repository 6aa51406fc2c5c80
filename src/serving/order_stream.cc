#include "serving/order_stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace deepsd {
namespace serving {

namespace {

bool ValidDayTs(int day, int ts) {
  return day >= 0 && ts >= 0 && ts < data::kMinutesPerDay;
}

}  // namespace

OrderStreamBuffer::OrderStreamBuffer(int num_areas, int window)
    : num_areas_(num_areas), window_(window) {
  DEEPSD_CHECK(num_areas > 0);
  DEEPSD_CHECK(window > 0);
  calls_.resize(static_cast<size_t>(num_areas));
  weather_.resize(static_cast<size_t>(window));
  weather_ts_.assign(static_cast<size_t>(window), -1);
  traffic_.resize(static_cast<size_t>(num_areas) * window);
  traffic_ts_.assign(static_cast<size_t>(num_areas) * window, -1);
  held_traffic_.resize(static_cast<size_t>(num_areas));
  held_traffic_ts_.assign(static_cast<size_t>(num_areas), -1);
}

void OrderStreamBuffer::AdvanceTo(int day, int minute) {
  static obs::Histogram* latency_us =
      obs::MetricsRegistry::Global().GetHistogram("serving/advance_to_us");
  static obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("serving/buffered_orders");
  DEEPSD_SPAN("serving/advance_to", latency_us);
  int64_t target = static_cast<int64_t>(day) * data::kMinutesPerDay + minute;
  std::lock_guard<std::mutex> lock(mu_);
  if (target <= now_abs_.load(std::memory_order_relaxed)) return;
  now_abs_.store(target, std::memory_order_release);
  DrainPendingLocked();
  Evict();
  if (obs::Enabled()) {
    depth->Set(static_cast<double>(BufferedOrdersLocked()));
  }
  if (observer_ != nullptr) observer_->OnClockAdvance(target);
}

void OrderStreamBuffer::set_stream_observer(StreamObserver* observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = observer;
}

void OrderStreamBuffer::DrainPendingLocked() {
  if (pending_.empty()) return;
  int64_t now = now_abs_.load(std::memory_order_relaxed);
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    if (p.release_abs > now) {
      pending_[kept++] = p;
      continue;
    }
    switch (p.kind) {
      case Pending::Kind::kOrder:
        if (!IngestOrderLocked(p.order)) RejectEvent();
        break;
      case Pending::Kind::kWeather:
        if (!IngestWeatherLocked(p.weather)) RejectEvent();
        break;
      case Pending::Kind::kTraffic:
        if (!IngestTrafficLocked(p.traffic)) RejectEvent();
        break;
    }
  }
  pending_.resize(kept);
}

void OrderStreamBuffer::RejectEvent() {
  static obs::Counter* rejected =
      obs::MetricsRegistry::Global().GetCounter("serving/events_rejected");
  rejected->Inc();
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void OrderStreamBuffer::Evict() {
  int64_t cutoff = now_abs_.load(std::memory_order_relaxed) - window_;
  for (auto& area_calls : calls_) {
    while (!area_calls.empty() && area_calls.front().ts_abs < cutoff) {
      area_calls.pop_front();
    }
  }
}

void OrderStreamBuffer::AddOrder(const data::Order& order) {
  static obs::Histogram* latency_us =
      obs::MetricsRegistry::Global().GetHistogram("serving/add_order_us");
  static obs::Counter* ingested =
      obs::MetricsRegistry::Global().GetCounter("serving/orders_ingested");
  DEEPSD_SPAN("serving/add_order", latency_us);
  ingested->Inc();
  data::Order event = order;
  util::FaultInjector& faults = util::FaultInjector::Global();
  if (faults.enabled()) {
    if (faults.DropEvent()) return;
    if (faults.CorruptEvent(&event, sizeof(event))) {
      // A flip inside the bool byte makes reading `valid` as bool UB;
      // re-derive it from the raw byte before anything loads the field.
      unsigned char raw = 0;
      std::memcpy(&raw, &event.valid, sizeof(raw));
      event.valid = raw != 0;
    }
    if (int delay = faults.DelayEventMinutes(); delay > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      Pending p{Pending::Kind::kOrder,
                now_abs_.load(std::memory_order_relaxed) + delay};
      p.order = event;
      pending_.push_back(p);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!IngestOrderLocked(event)) RejectEvent();
}

void OrderStreamBuffer::NoteOrderSeen(int day, int ts) {
  if (!ValidDayTs(day, ts)) return;
  const int64_t ts_abs =
      static_cast<int64_t>(day) * data::kMinutesPerDay + ts;
  std::lock_guard<std::mutex> lock(mu_);
  last_order_abs_ = std::max(last_order_abs_, ts_abs);
}

bool OrderStreamBuffer::IngestOrderLocked(const data::Order& order) {
  if (order.start_area < 0 || order.start_area >= num_areas_ ||
      !ValidDayTs(order.day, order.ts)) {
    return false;
  }
  int64_t ts_abs =
      static_cast<int64_t>(order.day) * data::kMinutesPerDay + order.ts;
  last_order_abs_ = std::max(last_order_abs_, ts_abs);
  if (observer_ != nullptr) observer_->OnOrderAccepted(order, ts_abs);
  if (ts_abs < now_abs_.load(std::memory_order_relaxed) - window_) {
    return true;  // valid but too old to matter
  }
  auto& area_calls = calls_[static_cast<size_t>(order.start_area)];
  Call call{ts_abs, order.passenger_id, order.valid};
  // Common case: in-order append; otherwise insert to keep ts ascending.
  if (area_calls.empty() || area_calls.back().ts_abs <= ts_abs) {
    area_calls.push_back(call);
  } else {
    auto pos = std::upper_bound(
        area_calls.begin(), area_calls.end(), call,
        [](const Call& a, const Call& b) { return a.ts_abs < b.ts_abs; });
    area_calls.insert(pos, call);
  }
  return true;
}

void OrderStreamBuffer::AddWeather(const data::WeatherRecord& record) {
  data::WeatherRecord event = record;
  util::FaultInjector& faults = util::FaultInjector::Global();
  if (faults.enabled()) {
    if (faults.DropEvent()) return;
    faults.CorruptEvent(&event, sizeof(event));
    if (int delay = faults.DelayEventMinutes(); delay > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      Pending p{Pending::Kind::kWeather,
                now_abs_.load(std::memory_order_relaxed) + delay};
      p.weather = event;
      pending_.push_back(p);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!IngestWeatherLocked(event)) RejectEvent();
}

bool OrderStreamBuffer::IngestWeatherLocked(const data::WeatherRecord& record) {
  if (!ValidDayTs(record.day, record.ts)) return false;
  // A negative type or non-finite real is a mangled payload (a bit-flipped
  // feed), not a weather condition. Large positive types are left to the
  // consumer, which knows the model's vocabulary.
  if (record.type < 0 || !std::isfinite(record.temperature) ||
      !std::isfinite(record.pm25)) {
    return false;
  }
  int64_t ts_abs =
      static_cast<int64_t>(record.day) * data::kMinutesPerDay + record.ts;
  if (ts_abs >= last_weather_abs_) {
    last_weather_abs_ = ts_abs;
    held_weather_.seen = true;
    held_weather_.type = record.type;
    held_weather_.temperature = record.temperature;
    held_weather_.pm25 = record.pm25;
  }
  if (ts_abs < now_abs_.load(std::memory_order_relaxed) - window_) return true;
  size_t slot = SlotIndex(ts_abs);
  weather_[slot].seen = true;
  weather_[slot].type = record.type;
  weather_[slot].temperature = record.temperature;
  weather_[slot].pm25 = record.pm25;
  weather_ts_[slot] = ts_abs;
  return true;
}

void OrderStreamBuffer::AddTraffic(const data::TrafficRecord& record) {
  data::TrafficRecord event = record;
  util::FaultInjector& faults = util::FaultInjector::Global();
  if (faults.enabled()) {
    if (faults.DropEvent()) return;
    faults.CorruptEvent(&event, sizeof(event));
    if (int delay = faults.DelayEventMinutes(); delay > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      Pending p{Pending::Kind::kTraffic,
                now_abs_.load(std::memory_order_relaxed) + delay};
      p.traffic = event;
      pending_.push_back(p);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!IngestTrafficLocked(event)) RejectEvent();
}

bool OrderStreamBuffer::IngestTrafficLocked(const data::TrafficRecord& record) {
  if (record.area < 0 || record.area >= num_areas_ ||
      !ValidDayTs(record.day, record.ts)) {
    return false;
  }
  int64_t ts_abs =
      static_cast<int64_t>(record.day) * data::kMinutesPerDay + record.ts;
  if (ts_abs >= held_traffic_ts_[static_cast<size_t>(record.area)]) {
    held_traffic_ts_[static_cast<size_t>(record.area)] = ts_abs;
    TrafficSlot& held = held_traffic_[static_cast<size_t>(record.area)];
    held.seen = true;
    std::copy(record.level_counts,
              record.level_counts + data::kCongestionLevels,
              held.level_counts);
  }
  last_traffic_abs_ = std::max(last_traffic_abs_, ts_abs);
  if (ts_abs < now_abs_.load(std::memory_order_relaxed) - window_) return true;
  size_t slot =
      static_cast<size_t>(record.area) * window_ + SlotIndex(ts_abs);
  traffic_[slot].seen = true;
  std::copy(record.level_counts,
            record.level_counts + data::kCongestionLevels,
            traffic_[slot].level_counts);
  traffic_ts_[slot] = ts_abs;
  return true;
}

int64_t OrderStreamBuffer::last_order_abs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_order_abs_;
}

int64_t OrderStreamBuffer::last_weather_abs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_weather_abs_;
}

int64_t OrderStreamBuffer::last_traffic_abs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_traffic_abs_;
}

void OrderStreamBuffer::TakeSnapshot(const int* areas, size_t n,
                                     int weather_hold, int traffic_hold,
                                     Snapshot* out) const {
  const size_t L = static_cast<size_t>(window_);
  out->window = window_;
  out->calls.clear();
  out->call_begin.resize(n + 1);
  out->traffic.resize(n * data::kCongestionLevels * L);
  out->weather_types.resize(L);
  out->weather_reals.resize(2 * L);

  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = now_abs_.load(std::memory_order_relaxed);
  out->now_abs = now;
  for (size_t i = 0; i < n; ++i) {
    const size_t area = static_cast<size_t>(areas[i]);
    out->call_begin[i] = out->calls.size();
    for (const Call& call : calls_[area]) {
      if (InWindow(call.ts_abs)) out->calls.push_back(call);
    }
    // Zero-order hold: a lag with no record of its own reuses the area's
    // last accepted record while that is no more than `traffic_hold` stale.
    const TrafficSlot& held_slot = held_traffic_[area];
    const int64_t held_ts = held_traffic_ts_[area];
    float* dst = out->traffic.data() + i * data::kCongestionLevels * L;
    for (int l = 1; l <= window_; ++l) {
      const int64_t ts = now - l;
      const size_t slot = ts >= 0 ? area * L + SlotIndex(ts) : 0;
      const bool fresh =
          ts >= 0 && traffic_[slot].seen && traffic_ts_[slot] == ts;
      const bool held = !fresh && held_slot.seen && held_ts <= ts &&
                        ts - held_ts <= traffic_hold;
      for (int level = 0; level < data::kCongestionLevels; ++level) {
        float v = 0.0f;
        if (fresh) {
          v = static_cast<float>(traffic_[slot].level_counts[level]);
        } else if (held) {
          v = static_cast<float>(held_slot.level_counts[level]);
        }
        *dst++ = v;
      }
    }
  }
  out->call_begin[n] = out->calls.size();

  for (int l = 1; l <= window_; ++l) {
    const int64_t ts = now - l;
    const size_t slot = ts >= 0 ? SlotIndex(ts) : 0;
    const bool fresh =
        ts >= 0 && weather_[slot].seen && weather_ts_[slot] == ts;
    const bool held = !fresh && held_weather_.seen &&
                      last_weather_abs_ <= ts &&
                      ts - last_weather_abs_ <= weather_hold;
    const WeatherSlot unknown;
    const WeatherSlot& src =
        fresh ? weather_[slot] : (held ? held_weather_ : unknown);
    out->weather_types[static_cast<size_t>(l - 1)] = src.type;
    out->weather_reals[static_cast<size_t>(l - 1)] = src.temperature;
    out->weather_reals[L + static_cast<size_t>(l - 1)] = src.pm25;
  }
}

void OrderStreamBuffer::Snapshot::SupplyDemand(size_t i, float* out) const {
  std::fill(out, out + 2 * window, 0.0f);
  for (size_t c = call_begin[i]; c < call_begin[i + 1]; ++c) {
    const int l = static_cast<int>(now_abs - calls[c].ts_abs);  // [1, L]
    out[calls[c].valid ? l - 1 : window + l - 1] += 1.0f;
  }
}

void OrderStreamBuffer::Snapshot::LastCallWaitingTime(size_t i, float* lc,
                                                      float* wt) const {
  if (lc != nullptr) std::fill(lc, lc + 2 * window, 0.0f);
  if (wt != nullptr) std::fill(wt, wt + 2 * window, 0.0f);
  // Group the calls by passenger, each group in arrival order: the first
  // call starts the episode, the last one (latest ts; the later arrival on
  // a tie) ends it.
  thread_local std::vector<std::pair<int32_t, size_t>> keys;
  keys.clear();
  for (size_t c = call_begin[i]; c < call_begin[i + 1]; ++c) {
    keys.emplace_back(calls[c].pid, c);
  }
  std::sort(keys.begin(), keys.end());
  for (size_t g = 0; g < keys.size();) {
    size_t e = g;
    while (e + 1 < keys.size() && keys[e + 1].first == keys[g].first) ++e;
    const Call& first = calls[keys[g].second];
    const Call& last = calls[keys[e].second];
    if (lc != nullptr) {
      const int l = static_cast<int>(now_abs - last.ts_abs);  // [1, L]
      lc[last.valid ? l - 1 : window + l - 1] += 1.0f;
    }
    const int wait = static_cast<int>(last.ts_abs - first.ts_abs);
    if (wt != nullptr && wait >= 0 && wait < window) {
      wt[last.valid ? wait : window + wait] += 1.0f;
    }
    g = e + 1;
  }
}

size_t OrderStreamBuffer::buffered_orders() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BufferedOrdersLocked();
}

size_t OrderStreamBuffer::BufferedOrdersLocked() const {
  size_t n = 0;
  for (const auto& area_calls : calls_) n += area_calls.size();
  return n;
}

}  // namespace serving
}  // namespace deepsd
