#ifndef DEEPSD_SERVING_SHARDED_PREDICTOR_H_
#define DEEPSD_SERVING_SHARDED_PREDICTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serving/online_predictor.h"
#include "serving/serving_queue.h"
#include "serving/shard_ring.h"
#include "util/circuit_breaker.h"
#include "util/deadline.h"

namespace deepsd {
namespace serving {

/// Tuning for the sharded serving router.
struct ShardedPredictorConfig {
  /// Area→shard placement. ring.num_shards is the shard count.
  ShardRingConfig ring;
  /// Fallback ladder thresholds, applied to every shard replica.
  FallbackConfig fallback;
  /// Template for each shard's admission queue. metric_prefix and breaker
  /// are overridden per shard ("serving/shard<i>", the shard's own
  /// breaker); everything else (capacity, workers, EWMA alpha, watchdog)
  /// is copied as-is. A rate_limiter set here is *shared* by all shards —
  /// a citywide offered-load cap — since the per-shard isolation job is
  /// already done by the per-shard queues and breakers.
  ServingQueueConfig queue;
  /// When true each shard gets its own CircuitBreaker built from
  /// `breaker` (name suffixed per shard), so one drowning shard trips
  /// only its own breaker and the siblings keep serving.
  bool per_shard_breakers = false;
  util::CircuitBreaker::Config breaker;
  /// Carved off the caller's deadline before it is handed to the shards:
  /// the scatter-gather merge needs a slice of the budget for itself.
  /// <= 0 hands the caller's deadline through untouched. An infinite
  /// caller deadline is always handed through infinite — that is the
  /// bitwise-equivalence path.
  int64_t merge_slack_us = 0;
  /// Test hook: overrides the per-shard budget carve entirely. Receives
  /// (shard index, caller deadline), returns the deadline that shard's
  /// request runs under. The virtual-clock deadline-budget tests use this
  /// to expire exactly one shard while its siblings stay fresh.
  std::function<util::Deadline(int shard, util::Deadline caller)>
      shard_budget_fn;
};

/// Per-shard slice of one PredictCity call's outcome.
struct ShardOutcome {
  int shard = 0;
  /// Areas of this call routed to the shard.
  size_t num_areas = 0;
  /// Admission verdict from the shard's queue. Anything but kAdmitted
  /// means the shard's areas were answered from the cheap path.
  AdmitVerdict verdict = AdmitVerdict::kAdmitted;
  /// Tier the shard's slice was actually served at (kBaseline when shed).
  FallbackTier tier = FallbackTier::kNone;
  /// True when the shard's budget expired before or during its batch.
  bool deadline_expired = false;
  /// Publish sequence of the model version the shard's slice was served
  /// from. Every shard of one call reports the SAME sequence — the
  /// swap-under-load harness fails the build if it ever observes a mix.
  uint64_t model_sequence = 0;
  int64_t queue_wait_us = 0;
  int64_t total_us = 0;
};

/// Merged outcome of one scatter-gather PredictCity call.
struct CityPredictResult {
  /// One gap per requested area, in request order. Always fully
  /// populated: a shed or expired shard degrades its slice, it never
  /// truncates the answer.
  std::vector<float> gaps;
  /// Worst tier across shards (worst tier wins — a citywide consumer must
  /// treat the merged answer as no healthier than its weakest slice).
  FallbackTier tier = FallbackTier::kNone;
  /// True when any shard's budget expired.
  bool deadline_expired = false;
  /// False when any shard was shed at admission (its slice is CheapGaps).
  bool fully_served = true;
  /// Publish sequence the whole call was pinned to (0 only for an empty
  /// request). All entries in `shards` carry this same value —
  /// PredictCity pins ONE version before the scatter and holds it across
  /// the gather.
  uint64_t model_sequence = 0;
  /// Per-shard outcomes for every shard this call touched, ascending by
  /// shard index. Idle shards (no areas routed to them) are absent.
  std::vector<ShardOutcome> shards;
};

/// Aggregated admission accounting across shards. The scatter-gather
/// invariant — admitted + shed == offered — must hold per shard *and* on
/// the merged totals; serving_sharded_test.cc pins both.
struct ShardedStats {
  std::vector<ServingQueueStats> per_shard;

  ServingQueueStats merged() const {
    ServingQueueStats m;
    for (const ServingQueueStats& s : per_shard) {
      m.offered += s.offered;
      m.admitted += s.admitted;
      m.completed += s.completed;
      m.shed_queue_full += s.shed_queue_full;
      m.shed_deadline += s.shed_deadline;
      m.shed_rate_limited += s.shed_rate_limited;
      m.shed_breaker += s.shed_breaker;
      m.shed_draining += s.shed_draining;
      m.deadline_misses += s.deadline_misses;
    }
    return m;
  }
};

/// Horizontally sharded serving front-end: N shards of areas behind a
/// consistent-hash router, each shard owning its own OnlinePredictor
/// replica, admission queue, breaker, and fallback ladder.
///
/// One ServingQueue + one OnlinePredictor serve a 58-area city fine; they
/// do not serve a few thousand areas under citywide fan-out, and — worse —
/// they couple every district's latency to the hottest one's. Sharding
/// decouples them:
///
///   * the ring places areas on shards so resharding moves a minimal
///     fraction of the city (see ShardRing);
///   * each shard replica has its own bounded queue and breaker, so a
///     surge in one district sheds in that district's queue and cannot
///     starve the rest;
///   * PredictCity scatter-gathers: it partitions the request by the
///     ring, submits each slice to its shard's queue under a per-shard
///     deadline budget carved from the caller's util::Deadline, and
///     merges the per-shard PredictResults — worst tier wins, and only
///     the shards that miss degrade (their slices answer from the cheap
///     path; fresh shards' slices stay fresh).
///
/// The prediction work itself fans out on the shared util::ThreadPool
/// exactly as the single-shard path does (each shard's PredictBatch
/// parallelizes assembly and the forward pass), so shard workers are
/// coordinators, not compute hogs.
///
/// Equivalence contract (docs/sharding.md, serving_sharded_test.cc): with
/// healthy feeds and an infinite deadline, PredictCity() is bitwise
/// identical at ANY shard count — the same guarantee PR 2/3 established
/// for thread counts and kernels, extended to the shard axis. Per-area
/// predictions depend only on that area's features, and the kernels
/// accumulate per output element in ascending k, so batch composition
/// cannot change bits.
///
/// Feed routing: orders and traffic go to their owning shard's buffer;
/// weather and the clock broadcast to every shard. Order-stall detection
/// stays citywide — every order is *noted* on non-owning shards
/// (OrderStreamBuffer::NoteOrderSeen) so a shard that happens to own only
/// quiet areas never mistakes citywide health for a dead feed.
///
/// Thread safety: feeds, PredictCity, and Drain may be called from any
/// thread, concurrently.
class ShardedPredictor {
 public:
  /// Every shard replica resolves against the SAME VersionedModel — one
  /// read-only artifact mapping shared by all N replicas instead of N
  /// parsed copies — and PredictCity pins one version per call so a
  /// concurrent SwapModel can never mix versions within a city answer.
  /// `versions` must already hold a published version (an in-memory model
  /// is published as a store::BorrowedVersion). `versions` and `history`
  /// must outlive the predictor; they are shared read-only by every shard
  /// replica.
  ShardedPredictor(store::VersionedModel* versions,
                   const feature::FeatureAssembler* history,
                   ShardedPredictorConfig config = {});
  /// Drains every shard queue, then joins their workers.
  ~ShardedPredictor();

  ShardedPredictor(const ShardedPredictor&) = delete;
  ShardedPredictor& operator=(const ShardedPredictor&) = delete;

  int num_shards() const { return ring_.num_shards(); }
  const ShardRing& ring() const { return ring_; }
  int ShardOf(int area) const { return ring_.ShardOf(area); }

  /// Direct access to one shard's replica / queue (tests, diagnostics).
  OnlinePredictor& shard_predictor(int shard);
  const OnlinePredictor& shard_predictor(int shard) const;
  ServingQueue& shard_queue(int shard);

  /// Attaches the last-resort baseline to every shard replica.
  void set_baseline(const baselines::EmpiricalAverage* baseline);

  /// Publishes a new model version (see OnlinePredictor::SwapModel):
  /// in-flight city calls finish on the version they pinned, later calls
  /// see the new one, and no request is dropped or blocked by the swap.
  /// InvalidArgument on a serving-incompatible version.
  util::Status SwapModel(std::shared_ptr<const store::ModelVersion> version);

  /// The continuous-learning rollback path: re-publishes a previously
  /// served version (mechanically a SwapModel — in-flight calls finish on
  /// their pin, no request is dropped) and counts it separately as
  /// serving/model_rollbacks so dashboards distinguish an emergency
  /// revert from a routine promotion.
  util::Status RollbackModel(std::shared_ptr<const store::ModelVersion> version);

  /// The publish sequence the next city call would pin.
  uint64_t current_model_sequence() const {
    return versions_->stats().current_sequence;
  }

  // ---- feed routing -------------------------------------------------
  /// Routes the order to its owning shard and notes it on the others
  /// (citywide order-stall clock). Malformed orders are rejected by the
  /// owning buffer exactly as in the single-shard path.
  void AddOrder(const data::Order& order);
  /// Weather is citywide: broadcast to every shard.
  void AddWeather(const data::WeatherRecord& record);
  /// Traffic is per-area: routed to the owning shard.
  void AddTraffic(const data::TrafficRecord& record);
  /// Moves every shard's serving clock.
  void AdvanceTo(int day, int minute);

  // ---- scatter-gather -----------------------------------------------
  /// Predicts the given areas (any order, duplicates allowed) by fanning
  /// slices out to the owning shards and merging. See the class comment
  /// for degradation and equivalence semantics.
  CityPredictResult PredictCity(const std::vector<int>& area_ids,
                                util::Deadline deadline = {});

  /// Stops admission on every shard (subsequent PredictCity calls answer
  /// entirely from the cheap path, verdict kShedDraining) and blocks
  /// until every already-accepted request has resolved. Idempotent.
  void Drain();

  /// Snapshot of every shard queue's accounting.
  ShardedStats stats() const;

  const ShardedPredictorConfig& config() const { return config_; }

 private:
  struct Shard {
    std::unique_ptr<OnlinePredictor> predictor;
    std::unique_ptr<util::CircuitBreaker> breaker;  // null unless enabled
    std::unique_ptr<ServingQueue> queue;  // declared last: dies first
  };

  util::Deadline ShardBudget(int shard, util::Deadline caller) const;

  ShardedPredictorConfig config_;
  ShardRing ring_;
  int num_areas_;
  store::VersionedModel* versions_;
  std::vector<Shard> shards_;
};

}  // namespace serving
}  // namespace deepsd

#endif  // DEEPSD_SERVING_SHARDED_PREDICTOR_H_
