#include "serving/online_predictor.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <numeric>

#include "core/drift.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace serving {

OnlinePredictor::OnlinePredictor(store::VersionedModel* versions,
                                 const feature::FeatureAssembler* history,
                                 FallbackConfig fallback)
    : versions_(versions),
      history_(history),
      fallback_(fallback),
      buffer_(history->dataset().num_areas(), history->config().window),
      cache_(history->dataset().num_areas()) {
  DEEPSD_CHECK(versions != nullptr);
  DEEPSD_CHECK_MSG(versions->has_version(),
                   "OnlinePredictor needs a published model version");
  // Later publishes are config-gated by VersionedModel::Publish, so the
  // window agreed on here stays agreed for the predictor's lifetime.
  store::VersionedModel::Ref ref = versions->Acquire();
  DEEPSD_CHECK_MSG(
      ref.version()->model().config().window == history->config().window,
      "model and assembler window mismatch");
}

OnlinePredictor::OnlinePredictor(const core::DeepSDModel* model,
                                 const feature::FeatureAssembler* history,
                                 FallbackConfig fallback)
    : OnlinePredictor(std::make_unique<store::VersionedModel>(
                          std::make_shared<store::BorrowedVersion>(model)),
                      history, fallback) {}

OnlinePredictor::OnlinePredictor(std::unique_ptr<store::VersionedModel> owned,
                                 const feature::FeatureAssembler* history,
                                 FallbackConfig fallback)
    : OnlinePredictor(owned.get(), history, fallback) {
  owned_versions_ = std::move(owned);
}

util::Status OnlinePredictor::SwapModel(
    std::shared_ptr<const store::ModelVersion> version) {
  return versions_->Publish(std::move(version));
}

OnlinePredictor::Resolved OnlinePredictor::Resolve(
    store::PinnedModel pinned, store::VersionedModel::Ref* own) const {
  if (pinned.version == nullptr) {
    *own = versions_->Acquire();
    pinned = own->pinned();
  }
  const baselines::EmpiricalAverage* vb = pinned.version->baseline();
  return {pinned, &pinned.version->model(), vb != nullptr ? vb : baseline_};
}

FallbackTier OnlinePredictor::CurrentTier() const {
  store::VersionedModel::Ref ref = versions_->Acquire();
  return TierFor(ref.version()->model());
}

FallbackTier OnlinePredictor::TierFor(const core::DeepSDModel& model) const {
  const int64_t now = buffer_.now_abs();
  auto age = [now](int64_t last) {
    return last < 0 ? std::numeric_limits<int64_t>::max() : now - last;
  };

  int tier = 0;
  // Order-feed stall is global: at any realistic scale some area orders
  // every minute, so a citywide gap means the feed died, while one quiet
  // area is ordinary sparsity and must not degrade its neighbours.
  const int64_t order_age = age(buffer_.last_order_abs());
  if (order_age > fallback_.baseline_after_minutes) {
    tier = static_cast<int>(FallbackTier::kBaseline);
  } else if (order_age > fallback_.order_stall_minutes) {
    tier = static_cast<int>(FallbackTier::kEmpiricalBlock);
  }

  // Environment feeds only matter to models that consume them.
  if (model.config().use_weather) {
    const int64_t a = age(buffer_.last_weather_abs());
    if (a > fallback_.env_fresh_minutes + fallback_.weather_hold_minutes) {
      tier = std::max(tier, static_cast<int>(FallbackTier::kEmpiricalBlock));
    } else if (a > fallback_.env_fresh_minutes) {
      tier = std::max(tier, static_cast<int>(FallbackTier::kZeroOrderHold));
    }
  }
  if (model.config().use_traffic) {
    const int64_t a = age(buffer_.last_traffic_abs());
    if (a > fallback_.env_fresh_minutes + fallback_.traffic_hold_minutes) {
      tier = std::max(tier, static_cast<int>(FallbackTier::kEmpiricalBlock));
    } else if (a > fallback_.env_fresh_minutes) {
      tier = std::max(tier, static_cast<int>(FallbackTier::kZeroOrderHold));
    }
  }
  return static_cast<FallbackTier>(tier);
}

feature::ModelInput OnlinePredictor::AssembleLive(int area) const {
  store::VersionedModel::Ref ref = versions_->Acquire();
  const core::DeepSDModel& model = ref.version()->model();
  const FallbackTier tier = TierFor(model);
  // Per-thread like PredictBatch's, so a per-area caller allocates only
  // the ModelInput it returns.
  thread_local OrderStreamBuffer::Snapshot snap;
  thread_local core::Batch row;
  TakeInputs(&area, 1, tier, model, &snap);
  core::ShapeBatch(&row, 1, history_->config().window,
                   model.mode() == core::DeepSDModel::Mode::kAdvanced);
  FillRows(&area, nullptr, 0, 1, tier, snap, &row);
  return core::RowInput(row, 0);
}

void OnlinePredictor::TakeInputs(const int* areas, size_t n, FallbackTier tier,
                                 const core::DeepSDModel& model,
                                 OrderStreamBuffer::Snapshot* snap) const {
  // Stale (but not dead) weather/traffic feeds are zero-order held: the
  // last accepted record stands in for the missing trailing minutes. A
  // fresh feed makes the held values identical to the plain ones, and a
  // long-dead feed degrades to the unknown encoding (type 0 / zeros).
  const bool hold = tier >= FallbackTier::kZeroOrderHold;
  buffer_.TakeSnapshot(areas, n, hold ? fallback_.weather_hold_minutes : -1,
                       hold ? fallback_.traffic_hold_minutes : -1, snap);
  // Out-of-vocabulary type ids (possible only from a corrupted feed; the
  // stream buffer rejects negatives but cannot know the model's vocab)
  // degrade to the unknown type rather than tripping the embedding check.
  for (int& type : snap->weather_types) {
    if (type < 0 || type >= model.config().weather_vocab) type = 0;
  }
  const size_t L = static_cast<size_t>(history_->config().window);
  for (size_t i = 0; i < L; ++i) {
    snap->weather_reals[i] = history_->NormTemp(snap->weather_reals[i]);
    snap->weather_reals[L + i] = history_->NormPm(snap->weather_reals[L + i]);
  }
}

void OnlinePredictor::FillRows(const int* areas, const uint32_t* index,
                               size_t begin, size_t end, FallbackTier tier,
                               const OrderStreamBuffer::Snapshot& snap,
                               core::Batch* batch) const {
  const int L = history_->config().window;
  const size_t dim = 2 * static_cast<size_t>(L);
  const int t = snap.minute();
  const int t10 = t + data::kGapWindow;
  const int week_id = history_->dataset().WeekId(snap.day());
  const size_t week_off = static_cast<size_t>(week_id) * dim;
  // Order vectors fall back to the day-of-week empirical block once the
  // order feed is stalled (tier >= 2); the order stream can't zero-order
  // hold (counts are per-minute events, not levels).
  const bool empirical_orders = tier >= FallbackTier::kEmpiricalBlock;
  DEEPSD_CHECK(!(empirical_orders && batch->has_projections));

  for (size_t r = begin; r < end; ++r) {
    // Request index: the area and its snapshot row.
    const size_t i = index != nullptr ? index[r] : r;
    const int area = areas[i];
    const int row = static_cast<int>(r);
    batch->area_ids[r] = area;
    batch->time_ids[r] = t;
    batch->week_ids[r] = week_id;

    float* v_sd = batch->v_sd.row(row);
    if (batch->has_advanced) {
      float* v_lc = batch->v_lc.row(row);
      float* v_wt = batch->v_wt.row(row);
      // Live days are outside the reference period: no own-day exclusion.
      // A batch with projections carries Proj(E^t) instead of H^t.
      if (!batch->has_projections) {
        float* h_sd = batch->h_sd.row(row);
        float* h_lc = batch->h_lc.row(row);
        float* h_wt = batch->h_wt.row(row);
        history_->History(area, /*day=*/-1, t, h_sd, h_lc, h_wt);
        if (empirical_orders) {
          std::copy(h_sd + week_off, h_sd + week_off + dim, v_sd);
          std::copy(h_lc + week_off, h_lc + week_off + dim, v_lc);
          std::copy(h_wt + week_off, h_wt + week_off + dim, v_wt);
        }
        for (nn::Tensor* block : {&batch->h_sd, &batch->h_lc, &batch->h_wt}) {
          history_->NormalizeCounts(block->row(row),
                                    static_cast<size_t>(block->cols()));
        }
      }
      history_->History(area, /*day=*/-1, t10, batch->h_sd10.row(row),
                        batch->h_lc10.row(row), batch->h_wt10.row(row));
      if (!empirical_orders) {
        snap.SupplyDemand(i, v_sd);
        snap.LastCallWaitingTime(i, v_lc, v_wt);
      }
      for (nn::Tensor* block : {&batch->v_sd, &batch->h_sd10, &batch->v_lc,
                                &batch->h_lc10, &batch->v_wt, &batch->h_wt10}) {
        history_->NormalizeCounts(block->row(row),
                                  static_cast<size_t>(block->cols()));
      }
    } else {
      if (empirical_orders) {
        const std::vector<float> h = history_->HistoricalSd(area, week_id, t);
        std::copy(h.begin(), h.end(), v_sd);
      } else {
        snap.SupplyDemand(i, v_sd);
      }
      history_->NormalizeCounts(v_sd, dim);
    }

    for (size_t l = 0; l < static_cast<size_t>(L); ++l) {
      batch->weather_types_by_lag[l][r] = snap.weather_types[l];
    }
    std::copy(snap.weather_reals.begin(), snap.weather_reals.end(),
              batch->weather_reals.row(row));
    const float* tc = snap.Traffic(i);
    float* v_tc = batch->v_tc.row(row);
    for (int k = 0; k < data::kCongestionLevels * L; ++k) {
      v_tc[k] = history_->NormTraffic(k % data::kCongestionLevels, tc[k]);
    }
  }
}

std::vector<float> OnlinePredictor::CheapGaps(
    const std::vector<int>& area_ids, store::PinnedModel pinned) const {
  store::VersionedModel::Ref own;
  const baselines::EmpiricalAverage* baseline = Resolve(pinned, &own).baseline;
  std::vector<float> gaps;
  gaps.reserve(area_ids.size());
  const int t = buffer_.minute();
  for (int area : area_ids) {
    gaps.push_back(baseline != nullptr ? baseline->Predict(area, t) : 0.0f);
  }
  return gaps;
}

PredictResult OnlinePredictor::PredictBatch(const std::vector<int>& area_ids,
                                            util::Deadline deadline,
                                            store::PinnedModel pinned) const {
  static obs::Histogram* latency_us =
      obs::MetricsRegistry::Global().GetHistogram("serving/predict_batch_us");
  DEEPSD_SPAN("serving/predict_batch", latency_us);
  static obs::Counter* degraded = obs::MetricsRegistry::Global().GetCounter(
      "serving/degraded_predictions");
  static obs::Counter* tier_zoh =
      obs::MetricsRegistry::Global().GetCounter("serving/fallback_tier_zoh");
  static obs::Counter* tier_empirical =
      obs::MetricsRegistry::Global().GetCounter(
          "serving/fallback_tier_empirical");
  static obs::Counter* tier_baseline =
      obs::MetricsRegistry::Global().GetCounter(
          "serving/fallback_tier_baseline");
  static obs::Counter* nonfinite = obs::MetricsRegistry::Global().GetCounter(
      "serving/nonfinite_predictions");
  static obs::Counter* expired_calls =
      obs::MetricsRegistry::Global().GetCounter(
          "serving/predict_deadline_expired");
  static obs::Counter* projection_hits =
      obs::MetricsRegistry::Global().GetCounter(
          "serving/projection_hit_rows");
  static obs::Counter* projection_misses =
      obs::MetricsRegistry::Global().GetCounter(
          "serving/projection_miss_rows");
  if (area_ids.empty()) return {};

  // Pin one model version for the whole call (unless the caller — the
  // scatter-gather coordinator — already pinned). Everything below
  // resolves against `rm`, so a concurrent SwapModel can never mix
  // versions within this result.
  store::VersionedModel::Ref own;
  const Resolved rm = Resolve(pinned, &own);

  PredictionObserver* observer = observer_.load(std::memory_order_acquire);
  const int64_t now_abs = buffer_.now_abs();
  std::vector<float> activity;

  PredictResult result;
  result.model_sequence = rm.pinned.sequence;
  FallbackTier tier = TierFor(*rm.model);
  // Without a baseline attached the ladder's last rung is the empirical
  // block — still an answer, just a less specific one.
  if (tier == FallbackTier::kBaseline && rm.baseline == nullptr) {
    tier = FallbackTier::kEmpiricalBlock;
  }

  // Abandons the remaining pipeline stages: the answer a late caller gets
  // is the cheapest one we have, reported as tier-3 so downstream breakers
  // see it for what it is. Shared by every cancellation checkpoint below.
  auto expire = [&]() -> PredictResult& {
    result.gaps = CheapGaps(area_ids, rm.pinned);
    result.tier = FallbackTier::kBaseline;
    result.deadline_expired = true;
    expired_calls->Inc();
    degraded->Inc(area_ids.size());
    tier_baseline->Inc(area_ids.size());
    // Expired answers are still served answers; the tap sees them at the
    // tier they actually went out at (no activity: assembly was skipped).
    if (observer != nullptr) {
      observer->OnPrediction(area_ids, result, {}, now_abs);
    }
    return result;
  };

  // Checkpoint 1: already too late to start.
  if (deadline.expired()) return expire();

  std::vector<float> preds;
  if (tier == FallbackTier::kBaseline) {
    const int t = buffer_.minute();
    preds.reserve(area_ids.size());
    for (int area : area_ids) {
      preds.push_back(rm.baseline->Predict(area, t));
    }
  } else {
    // The call reads the stream buffer once: one snapshot under one lock,
    // with the citywide weather block normalised once. An advanced model's
    // rows then split by the projection cache: rows that hit read p and
    // Proj(E^t) from it and skip H^t, the softmax and one projection per
    // signal; the rest run the full forward. Assembly parallelizes over
    // rows, each writing its own row of one of the two batches; the
    // forward pass parallelizes internally over 16-row chunks that read
    // the batches in place. A chunk of 4 areas keeps fill tasks small
    // enough to overlap across workers. Each worker's graph is long-lived
    // and arena-backed (see docs/performance.md), so a steady request
    // stream replays prebuilt topologies into recycled tensor storage.
    //
    // Snapshot, batches and buffers are per-thread and refilled every
    // call, so a steady stream allocates nothing for them. Nothing below
    // touches them once the observer runs — it may re-enter on this thread
    // (a shadow evaluator re-predicts from inside OnPrediction).
    thread_local OrderStreamBuffer::Snapshot snap;
    thread_local core::Batch hit_batch, miss_batch;
    thread_local std::vector<uint32_t> order;
    thread_local ProjectionCache::Key key;
    thread_local std::vector<float> rows_out, ext_out;
    const size_t n = area_ids.size();
    const int window = history_->config().window;
    TakeInputs(area_ids.data(), n, tier, *rm.model, &snap);
    const int t = snap.minute();
    const bool advanced =
        rm.model->mode() == core::DeepSDModel::Mode::kAdvanced;
    size_t nh = 0;
    if (advanced) {
      CacheKey(rm, snap.day(), &key);
      // The empirical block's V is a slice of H^t, so that tier misses.
      nh = cache_.Split(key, area_ids, t,
                        tier < FallbackTier::kEmpiricalBlock, window, &order,
                        &hit_batch, &miss_batch);
      projection_hits->Inc(nh);
      projection_misses->Inc(n - nh);
    } else {
      order.resize(n);
      std::iota(order.begin(), order.end(), 0u);
      core::ShapeBatch(&miss_batch, static_cast<int>(n), window, false);
    }

    // Checkpoint 2: each assembly chunk starts only while the deadline
    // holds — one relaxed flag load plus a clock read per chunk, so a
    // request that expires mid-assembly stops burning pool time almost
    // immediately instead of finishing work nobody will read.
    std::atomic<bool> assembly_expired{false};
    // Pool workers must fill this thread's batches, not their own
    // thread_local ones: hand them pointers.
    core::Batch* hits = &hit_batch;
    core::Batch* misses = &miss_batch;
    const OrderStreamBuffer::Snapshot* inputs = &snap;
    const uint32_t* index = order.data();
    util::ThreadPool::Global().ParallelFor(
        0, n, 4, [&](size_t i0, size_t i1) {
          if (assembly_expired.load(std::memory_order_relaxed)) return;
          if (deadline.expired()) {
            assembly_expired.store(true, std::memory_order_relaxed);
            return;
          }
          if (i0 < nh) {
            FillRows(area_ids.data(), index, i0, std::min(i1, nh), tier,
                     *inputs, hits);
          }
          if (i1 > nh) {
            FillRows(area_ids.data(), index + nh, std::max(i0, nh) - nh,
                     i1 - nh, tier, *inputs, misses);
          }
        });
    if (assembly_expired.load(std::memory_order_relaxed)) return expire();

    // Row i of the forward is request index order[i]: hits, then misses.
    if (observer != nullptr) {
      activity.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const float* v_sd =
            i < nh ? hit_batch.v_sd.row(static_cast<int>(i))
                   : miss_batch.v_sd.row(static_cast<int>(i - nh));
        activity[order[i]] = core::InputActivity(
            v_sd, static_cast<size_t>(miss_batch.v_sd.cols()));
      }
    }

    // Checkpoint 3: the forward checks the deadline before each 16-row
    // chunk. An advanced forward also hands back each row's p and
    // Proj(E^{t+10}) for the cache, laid out over all n rows.
    rows_out.resize(n);
    core::DeepSDModel::ExtendedState hit_state, miss_state;
    if (advanced) {
      const size_t p_size = 3 * n * data::kDaysPerWeek;
      const size_t proj = static_cast<size_t>(rm.model->config().proj_dim);
      ext_out.resize(p_size + 3 * n * proj);
      for (size_t sig = 0; sig < 3; ++sig) {
        hit_state.p[sig] = ext_out.data() + sig * n * data::kDaysPerWeek;
        hit_state.proj_e10[sig] = ext_out.data() + p_size + sig * n * proj;
        miss_state.p[sig] = hit_state.p[sig] + nh * data::kDaysPerWeek;
        miss_state.proj_e10[sig] = hit_state.proj_e10[sig] + nh * proj;
      }
    }
    if (nh > 0 && !rm.model->PredictRows(hit_batch, 0, nh, /*batch_size=*/16,
                                         rows_out.data(), deadline,
                                         &hit_state)) {
      return expire();
    }
    if (nh < n &&
        !rm.model->PredictRows(miss_batch, 0, n - nh, /*batch_size=*/16,
                               rows_out.data() + nh, deadline,
                               advanced ? &miss_state : nullptr)) {
      return expire();
    }
    if (advanced) cache_.Store(key, area_ids, order, t, hit_state);

    preds.resize(n);
    for (size_t i = 0; i < n; ++i) preds[order[i]] = rows_out[i];
    // Last line of defense: a non-finite output (NaN-poisoned weights, a
    // corrupt upstream) is replaced by the baseline (or 0), never served.
    for (size_t i = 0; i < preds.size(); ++i) {
      if (!std::isfinite(preds[i])) {
        preds[i] = rm.baseline != nullptr
                       ? rm.baseline->Predict(area_ids[i], t)
                       : 0.0f;
        nonfinite->Inc();
        tier = FallbackTier::kBaseline;
      }
    }
  }

  switch (tier) {
    case FallbackTier::kNone:
      break;
    case FallbackTier::kZeroOrderHold:
      degraded->Inc(area_ids.size());
      tier_zoh->Inc(area_ids.size());
      break;
    case FallbackTier::kEmpiricalBlock:
      degraded->Inc(area_ids.size());
      tier_empirical->Inc(area_ids.size());
      break;
    case FallbackTier::kBaseline:
      degraded->Inc(area_ids.size());
      tier_baseline->Inc(area_ids.size());
      break;
  }
  result.gaps = std::move(preds);
  result.tier = tier;
  if (observer != nullptr) {
    observer->OnPrediction(area_ids, result, activity, now_abs);
  }
  return result;
}

void OnlinePredictor::CacheKey(const Resolved& rm, int day,
                               ProjectionCache::Key* key) {
  key->model = rm.model;
  key->sequence = rm.pinned.sequence;
  key->kernel_mode = nn::kernels::kernel_mode();
  key->day = day;
  key->params.clear();
  rm.model->ExtendedStamp(&key->params);
}

void OnlinePredictor::ProjectionCache::Reset(const Key& key) {
  key_ = key;
  proj_dim_ = key.model->config().proj_dim;
  const size_t proj = static_cast<size_t>(proj_dim_);
  has_p_.assign(num_areas_, 0);
  p_.resize(num_areas_ * 3 * data::kDaysPerWeek);
  stamp_.assign(num_areas_ * kRingMinutes, -1);
  ring_.resize(num_areas_ * kRingMinutes * 3 * proj);
}

size_t OnlinePredictor::ProjectionCache::Split(
    const Key& key, const std::vector<int>& areas, int t, bool allow_hits,
    int window, std::vector<uint32_t>* order, core::Batch* hits,
    core::Batch* misses) {
  const size_t n = areas.size();
  const size_t slot = static_cast<size_t>(t % kRingMinutes);
  order->resize(n);
  std::lock_guard<std::mutex> lock(mu_);
  if (!(key == key_)) Reset(key);
  const size_t proj = static_cast<size_t>(proj_dim_);
  size_t nh = 0;
  size_t nm = 0;
  uint32_t* miss_order = order->data() + n;  // misses fill from the back
  for (size_t i = 0; i < n; ++i) {
    const size_t a = static_cast<size_t>(areas[i]);
    const bool hit =
        allow_hits && has_p_[a] != 0 && stamp_[a * kRingMinutes + slot] == t;
    if (hit) {
      (*order)[nh++] = static_cast<uint32_t>(i);
    } else {
      *--miss_order = static_cast<uint32_t>(i);
      ++nm;
    }
  }
  std::reverse(order->begin() + static_cast<long>(nh), order->end());

  core::ShapeBatch(hits, static_cast<int>(nh), window, true, proj_dim_);
  core::ShapeBatch(misses, static_cast<int>(nm), window, true);
  for (size_t r = 0; r < nh; ++r) {
    const size_t a = static_cast<size_t>(areas[(*order)[r]]);
    const int row = static_cast<int>(r);
    for (size_t s = 0; s < 3; ++s) {
      const float* p = p_.data() + (a * 3 + s) * data::kDaysPerWeek;
      std::copy(p, p + data::kDaysPerWeek, hits->weekday_p[s].row(row));
      const float* e =
          ring_.data() + ((a * kRingMinutes + slot) * 3 + s) * proj;
      std::copy(e, e + proj, hits->proj_e[s].row(row));
    }
  }
  return nh;
}

void OnlinePredictor::ProjectionCache::Store(
    const Key& key, const std::vector<int>& areas,
    const std::vector<uint32_t>& order, int t,
    const core::DeepSDModel::ExtendedState& state) {
  // Nothing reads a minute past the end of the day: the next day is
  // another key.
  const int t10 = t + data::kGapWindow;
  const bool ring = t10 < data::kMinutesPerDay;
  const size_t slot = static_cast<size_t>(t10 % kRingMinutes);
  std::lock_guard<std::mutex> lock(mu_);
  if (!(key == key_)) return;
  const size_t proj = static_cast<size_t>(proj_dim_);
  for (size_t r = 0; r < order.size(); ++r) {
    const size_t a = static_cast<size_t>(areas[order[r]]);
    for (size_t s = 0; s < 3; ++s) {
      const float* p = state.p[s] + r * data::kDaysPerWeek;
      std::copy(p, p + data::kDaysPerWeek,
                p_.data() + (a * 3 + s) * data::kDaysPerWeek);
      if (ring) {
        const float* e = state.proj_e10[s] + r * proj;
        std::copy(e, e + proj,
                  ring_.data() + ((a * kRingMinutes + slot) * 3 + s) * proj);
      }
    }
    has_p_[a] = 1;
    if (ring) stamp_[a * kRingMinutes + slot] = t10;
  }
}

}  // namespace serving
}  // namespace deepsd
