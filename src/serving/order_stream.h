#ifndef DEEPSD_SERVING_ORDER_STREAM_H_
#define DEEPSD_SERVING_ORDER_STREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "data/types.h"

namespace deepsd {
namespace serving {

/// Tap on the live stream — e.g. the online accuracy tracker
/// (eval/online_accuracy.h) joining predictions against arriving ground
/// truth. Callbacks run on the ingesting/advancing thread with the
/// buffer's internal mutex HELD, so the tap observes events in buffer
/// order; implementations must be fast and must never call back into the
/// buffer.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;
  /// A well-formed order passed validation (ts_abs = day·1440 + ts).
  /// Fires even for orders older than the buffer's window — stale events
  /// are useless for feature vectors but still real ground truth.
  virtual void OnOrderAccepted(const data::Order& order, int64_t ts_abs) = 0;
  /// The serving clock moved forward to `now_abs`.
  virtual void OnClockAdvance(int64_t now_abs) = 0;
};

/// Rolling window over a live order / weather / traffic stream.
///
/// Holds exactly the last `window` minutes of state per area — everything
/// the paper's real-time feature vectors (Definitions 5–7) need — and
/// evicts older events as the clock advances. Events may arrive slightly
/// out of order within the window; events older than the window are
/// dropped.
///
/// Robustness: malformed events (out-of-range area or timestamp — e.g. a
/// bit-flipped payload from a flaky feed) are rejected with a counter
/// bump (`serving/events_rejected`), never a crash. When the global
/// util::FaultInjector is enabled, every Add* call is a fault point:
/// events may be dropped, bit-flipped, or delayed (delayed events queue
/// up and are delivered by the AdvanceTo that first reaches their release
/// time). The buffer also tracks the freshness of each feed so the
/// serving layer can decide when to degrade (docs/robustness.md).
///
/// Thread safety: every mutator (AdvanceTo / Add*) and every reader
/// (TakeSnapshot, buffered_orders) takes an internal mutex, so ingestion
/// and concurrent prediction callers may race freely; each snapshot is a
/// consistent copy of the buffer at some point between the caller's
/// surrounding operations. The clock accessors (now_abs / day / minute)
/// are lock-free atomic reads.
class OrderStreamBuffer {
 public:
  /// `window` is the look-back L in minutes (paper: 20).
  OrderStreamBuffer(int num_areas, int window);

  int num_areas() const { return num_areas_; }
  int window() const { return window_; }

  /// Current clock as absolute minutes (day·1440 + minute).
  int64_t now_abs() const { return now_abs_.load(std::memory_order_acquire); }
  int day() const { return static_cast<int>(now_abs() / data::kMinutesPerDay); }
  int minute() const {
    return static_cast<int>(now_abs() % data::kMinutesPerDay);
  }

  /// Moves the clock forward (never backward) and evicts expired state.
  void AdvanceTo(int day, int minute);

  /// Ingests one order (uses order.day/order.ts for its timestamp).
  /// Malformed records are rejected, not fatal.
  void AddOrder(const data::Order& order);
  /// Advances the citywide order-feed freshness clock without storing an
  /// order. The sharded router feeds each order to its owning shard's
  /// buffer and *notes* it on the siblings: order-stall detection is
  /// citywide by design (one quiet area is ordinary sparsity and must not
  /// degrade its neighbours — see FallbackConfig::order_stall_minutes), so
  /// every replica must agree on when the feed last produced, no matter
  /// which shard the event landed in. Ignores out-of-range timestamps; no
  /// observer fires (the owning shard delivers the real event).
  void NoteOrderSeen(int day, int ts);
  /// Ingests a weather record (shared across areas).
  void AddWeather(const data::WeatherRecord& record);
  /// Ingests a traffic record for its area.
  void AddTraffic(const data::TrafficRecord& record);

  /// Absolute minute of the most recent event accepted per feed; -1 while
  /// the feed has never produced. The serving fallback ladder reads these
  /// to spot stalled feeds.
  int64_t last_order_abs() const;
  int64_t last_weather_abs() const;
  int64_t last_traffic_abs() const;

  /// Events rejected as malformed since construction.
  uint64_t rejected_events() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Number of buffered orders (diagnostics).
  size_t buffered_orders() const;

 private:
  struct Call {
    int64_t ts_abs;
    int32_t pid;
    bool valid;
  };

 public:
  /// One consistent copy of everything a prediction call reads from the
  /// buffer, for a list of areas: the state behind their real-time vectors
  /// plus the citywide weather. Taken under a single lock; its accessors
  /// then run lock-free. Reuse one snapshot per thread to keep repeated
  /// calls allocation-free.
  struct Snapshot {
    int64_t now_abs = 0;
    int window = 0;
    /// In-window calls of the i-th area: calls[call_begin[i],
    /// call_begin[i+1]), ts ascending and in arrival order within a minute.
    std::vector<Call> calls;
    std::vector<size_t> call_begin;
    /// Per area, the traffic level counts at lags 1..L (4L raw values).
    std::vector<float> traffic;
    /// Weather-type ids at lags 1..L (lags with no record hold type 0),
    /// then temperatures followed by PM2.5 at lags 1..L (2L raw reals).
    std::vector<int> weather_types;
    std::vector<float> weather_reals;

    int day() const {
      return static_cast<int>(now_abs / data::kMinutesPerDay);
    }
    int minute() const {
      return static_cast<int>(now_abs % data::kMinutesPerDay);
    }
    /// The i-th area's real-time supply-demand vector over [now-L, now)
    /// into `out`: 2L raw counts.
    void SupplyDemand(size_t i, float* out) const;
    /// The i-th area's last-call (Def. 6) and waiting-time (Def. 7)
    /// vectors, 2L raw counts each, from one pass over its calls; either
    /// pointer may be null.
    void LastCallWaitingTime(size_t i, float* lc, float* wt) const;
    /// The i-th area's 4L traffic counts.
    const float* Traffic(size_t i) const {
      return traffic.data() +
             i * static_cast<size_t>(data::kCongestionLevels) * window;
    }
  };

  /// Fills `out` for `n` areas under one lock, reusing its storage.
  /// `weather_hold` / `traffic_hold` are zero-order-hold horizons in
  /// minutes: a lag with no record of its own is filled from the feed's
  /// most recent accepted record while that is at most this much older
  /// than the lag (tier-1 degradation, docs/robustness.md). A negative
  /// horizon holds nothing.
  void TakeSnapshot(const int* areas, size_t n, int weather_hold,
                    int traffic_hold, Snapshot* out) const;

  /// Attaches (or detaches, with nullptr) the stream tap. The observer
  /// must outlive the buffer or be detached first; see StreamObserver for
  /// the locking contract.
  void set_stream_observer(StreamObserver* observer);

 private:
  struct WeatherSlot {
    bool seen = false;
    int32_t type = 0;
    float temperature = 0;
    float pm25 = 0;
  };
  struct TrafficSlot {
    bool seen = false;
    int32_t level_counts[data::kCongestionLevels] = {0, 0, 0, 0};
  };

  /// Index of the per-minute slot for absolute minute `ts_abs` in the
  /// circular per-lag arrays; slots cycle every `window` minutes.
  size_t SlotIndex(int64_t ts_abs) const {
    return static_cast<size_t>(ts_abs % window_);
  }
  bool InWindow(int64_t ts_abs) const {
    int64_t now = now_abs_.load(std::memory_order_relaxed);
    return ts_abs >= now - window_ && ts_abs < now;
  }
  void Evict();
  /// buffered_orders() body; the caller must hold mu_. AdvanceTo reports
  /// the post-eviction depth while still inside its critical section, so
  /// the public accessor (which takes mu_) cannot be reused there.
  size_t BufferedOrdersLocked() const;

  /// A fault-delayed event waiting for the clock to reach `release_abs`.
  struct Pending {
    enum class Kind { kOrder, kWeather, kTraffic };
    Kind kind;
    int64_t release_abs;
    data::Order order{};
    data::WeatherRecord weather{};
    data::TrafficRecord traffic{};
  };

  // Ingestion bodies (caller holds mu_): validate, insert, update feed
  // freshness. Return false when the record is malformed.
  bool IngestOrderLocked(const data::Order& order);
  bool IngestWeatherLocked(const data::WeatherRecord& record);
  bool IngestTrafficLocked(const data::TrafficRecord& record);
  void RejectEvent();
  /// Delivers pending events whose release time has arrived (holds mu_).
  void DrainPendingLocked();

  int num_areas_;
  int window_;
  std::atomic<int64_t> now_abs_{0};

  /// Guards every container below. All mutators and snapshot readers lock
  /// it; now_abs_ is additionally atomic so the clock accessors need not.
  mutable std::mutex mu_;

  std::vector<std::deque<Call>> calls_;            // per area, ts ascending
  std::vector<WeatherSlot> weather_;               // window slots
  std::vector<int64_t> weather_ts_;                // slot → abs minute
  std::vector<TrafficSlot> traffic_;               // area*window slots
  std::vector<int64_t> traffic_ts_;

  std::vector<Pending> pending_;  // fault-delayed events, unordered

  // Feed freshness + the last accepted record per feed (the zero-order
  // hold source). Traffic keeps one per area.
  int64_t last_order_abs_ = -1;
  int64_t last_weather_abs_ = -1;
  int64_t last_traffic_abs_ = -1;
  WeatherSlot held_weather_;
  std::vector<TrafficSlot> held_traffic_;     // per area
  std::vector<int64_t> held_traffic_ts_;      // per area, -1 = never

  StreamObserver* observer_ = nullptr;  // guarded by mu_

  std::atomic<uint64_t> rejected_{0};
};

}  // namespace serving
}  // namespace deepsd

#endif  // DEEPSD_SERVING_ORDER_STREAM_H_
