#include "serving/sharded_predictor.h"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace deepsd {
namespace serving {

ShardedPredictor::ShardedPredictor(store::VersionedModel* versions,
                                   const feature::FeatureAssembler* history,
                                   ShardedPredictorConfig config)
    : config_(std::move(config)),
      ring_(config_.ring),
      num_areas_(history->dataset().num_areas()),
      versions_(versions) {
  DEEPSD_CHECK_MSG(versions_ != nullptr,
                   "ShardedPredictor needs a VersionedModel");
  DEEPSD_CHECK_MSG(history != nullptr, "ShardedPredictor needs history");
  const int n = ring_.num_shards();
  shards_.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.predictor =
        std::make_unique<OnlinePredictor>(versions_, history, config_.fallback);
    ServingQueueConfig qc = config_.queue;
    qc.metric_prefix = util::StrFormat("serving/shard%d", s);
    if (config_.per_shard_breakers) {
      util::CircuitBreaker::Config bc = config_.breaker;
      bc.name = qc.metric_prefix + "/breaker";
      shard.breaker = std::make_unique<util::CircuitBreaker>(bc);
      qc.breaker = shard.breaker.get();
    }
    shard.queue = std::make_unique<ServingQueue>(shard.predictor.get(), qc);
  }
}

ShardedPredictor::~ShardedPredictor() = default;

OnlinePredictor& ShardedPredictor::shard_predictor(int shard) {
  return *shards_.at(static_cast<size_t>(shard)).predictor;
}

const OnlinePredictor& ShardedPredictor::shard_predictor(int shard) const {
  return *shards_.at(static_cast<size_t>(shard)).predictor;
}

ServingQueue& ShardedPredictor::shard_queue(int shard) {
  return *shards_.at(static_cast<size_t>(shard)).queue;
}

void ShardedPredictor::set_baseline(
    const baselines::EmpiricalAverage* baseline) {
  for (Shard& shard : shards_) shard.predictor->set_baseline(baseline);
}

util::Status ShardedPredictor::SwapModel(
    std::shared_ptr<const store::ModelVersion> version) {
  // One Publish flips the version for every shard at once — the replicas
  // all read the same VersionedModel, so there is no per-shard rollout
  // window in which different shards would serve different versions to
  // newly arriving calls. (In-flight calls still finish on their pin.)
  return versions_->Publish(std::move(version));
}

util::Status ShardedPredictor::RollbackModel(
    std::shared_ptr<const store::ModelVersion> version) {
  static obs::Counter* rollbacks =
      obs::MetricsRegistry::Global().GetCounter("serving/model_rollbacks");
  DEEPSD_RETURN_IF_ERROR(SwapModel(std::move(version)));
  rollbacks->Inc();
  return util::Status::OK();
}

void ShardedPredictor::AddOrder(const data::Order& order) {
  // A malformed area can hash anywhere on the ring; route it to shard 0 so
  // exactly one buffer rejects (and counts) it, and never advance the
  // citywide freshness clock from garbage.
  const bool valid_area =
      order.start_area >= 0 && order.start_area < num_areas_;
  const int owner = valid_area ? ring_.ShardOf(order.start_area) : 0;
  const int n = ring_.num_shards();
  for (int s = 0; s < n; ++s) {
    OrderStreamBuffer& buffer =
        shards_[static_cast<size_t>(s)].predictor->buffer();
    if (s == owner) {
      buffer.AddOrder(order);
    } else if (valid_area) {
      buffer.NoteOrderSeen(order.day, order.ts);
    }
  }
}

void ShardedPredictor::AddWeather(const data::WeatherRecord& record) {
  for (Shard& shard : shards_) shard.predictor->buffer().AddWeather(record);
}

void ShardedPredictor::AddTraffic(const data::TrafficRecord& record) {
  const bool valid_area = record.area >= 0 && record.area < num_areas_;
  const int owner = valid_area ? ring_.ShardOf(record.area) : 0;
  shards_[static_cast<size_t>(owner)].predictor->buffer().AddTraffic(record);
}

void ShardedPredictor::AdvanceTo(int day, int minute) {
  for (Shard& shard : shards_) shard.predictor->AdvanceTo(day, minute);
}

util::Deadline ShardedPredictor::ShardBudget(int shard,
                                             util::Deadline caller) const {
  if (config_.shard_budget_fn) return config_.shard_budget_fn(shard, caller);
  if (caller.infinite() || config_.merge_slack_us <= 0) return caller;
  return util::Deadline::AtSteadyUs(caller.deadline_us() -
                                    config_.merge_slack_us);
}

CityPredictResult ShardedPredictor::PredictCity(
    const std::vector<int>& area_ids, util::Deadline deadline) {
  CityPredictResult city;
  city.gaps.resize(area_ids.size(), 0.0f);
  if (area_ids.empty()) return city;

  // Pin ONE version for the whole call, before the scatter, and hold the
  // Ref across the gather: every shard slice — admitted, shed, or expired
  // — resolves against this exact version, so a SwapModel racing this
  // call can never produce a version-torn city answer, and the pinned
  // mapping cannot be reclaimed while any slice still reads it.
  const store::VersionedModel::Ref pin = versions_->Acquire();
  const store::PinnedModel pinned = pin.pinned();
  city.model_sequence = pinned.sequence;

  const int n = ring_.num_shards();
  // Scatter: partition the request by the ring, remembering where each
  // area sits in the caller's order so the gather can write answers back
  // in place. Order is preserved within a shard, which is what makes the
  // 1-shard path literally a direct PredictBatch call.
  std::vector<std::vector<int>> parts(static_cast<size_t>(n));
  std::vector<std::vector<size_t>> positions(static_cast<size_t>(n));
  for (size_t i = 0; i < area_ids.size(); ++i) {
    const size_t s = static_cast<size_t>(ring_.ShardOf(area_ids[i]));
    parts[s].push_back(area_ids[i]);
    positions[s].push_back(i);
  }

  // Fan out. Each shard queue resolves its future on its own worker (the
  // prediction itself fans out on the shared ThreadPool), so the slices
  // run concurrently and this caller pays max(shard latency), not the sum.
  std::vector<std::future<ServingResponse>> futures(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    if (parts[static_cast<size_t>(s)].empty()) continue;
    futures[static_cast<size_t>(s)] =
        shards_[static_cast<size_t>(s)].queue->Submit(
            parts[static_cast<size_t>(s)], ShardBudget(s, deadline), pinned);
  }

  // Gather + merge: worst tier wins, and only the shards that missed
  // degrade — a shed or expired shard's slice answers from its replica's
  // cheap path while healthy siblings' slices stay fresh.
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    if (parts[si].empty()) continue;
    ServingResponse response = futures[si].get();

    ShardOutcome outcome;
    outcome.shard = s;
    outcome.num_areas = parts[si].size();
    outcome.verdict = response.verdict;
    outcome.queue_wait_us = response.queue_wait_us;
    outcome.total_us = response.total_us;

    std::vector<float> slice;
    if (response.admitted()) {
      slice = std::move(response.result.gaps);
      outcome.tier = response.result.tier;
      outcome.deadline_expired = response.deadline_missed;
      outcome.model_sequence = response.result.model_sequence;
    } else {
      slice = shards_[si].predictor->CheapGaps(parts[si], pinned);
      outcome.tier = FallbackTier::kBaseline;
      outcome.model_sequence = pinned.sequence;
      city.fully_served = false;
    }
    DEEPSD_CHECK_MSG(slice.size() == parts[si].size(),
                     "shard answered the wrong number of areas");
    for (size_t j = 0; j < slice.size(); ++j) {
      city.gaps[positions[si][j]] = slice[j];
    }
    city.tier = std::max(city.tier, outcome.tier);
    city.deadline_expired |= outcome.deadline_expired;
    city.shards.push_back(outcome);
  }
  return city;
}

void ShardedPredictor::Drain() {
  for (Shard& shard : shards_) shard.queue->Drain();
}

ShardedStats ShardedPredictor::stats() const {
  ShardedStats stats;
  stats.per_shard.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    stats.per_shard.push_back(shard.queue->stats());
  }
  return stats;
}

}  // namespace serving
}  // namespace deepsd
