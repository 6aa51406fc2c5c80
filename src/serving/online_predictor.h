#ifndef DEEPSD_SERVING_ONLINE_PREDICTOR_H_
#define DEEPSD_SERVING_ONLINE_PREDICTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/model.h"
#include "feature/feature_assembler.h"
#include "nn/kernels.h"
#include "serving/order_stream.h"
#include "store/versioned_model.h"
#include "util/deadline.h"
#include "util/status.h"

namespace deepsd {
namespace serving {

/// How degraded the inputs behind a prediction were — the fallback ladder
/// of docs/robustness.md, healthiest first. Serving never refuses to
/// answer; it steps down this ladder instead.
enum class FallbackTier {
  kNone = 0,           ///< All feeds fresh; full model inputs.
  kZeroOrderHold = 1,  ///< Weather/traffic briefly stale; last known value
                       ///< held in place of the missing minutes.
  kEmpiricalBlock = 2, ///< Order stream stalled (or env feeds long dead);
                       ///< real-time blocks replaced by the day-of-week
                       ///< empirical averages the model also trains on.
  kBaseline = 3,       ///< Stream dead past recovery (or non-finite model
                       ///< output); EmpiricalAverage baseline answers.
};

/// Per-call outcome of a prediction batch. Returned by value so concurrent
/// PredictBatch callers each see their own tier and deadline verdict.
struct PredictResult {
  /// One gap per requested area, in request order. Always fully populated:
  /// an expired deadline degrades the answer, it never truncates it.
  std::vector<float> gaps;
  /// The fallback tier this call was actually served at.
  FallbackTier tier = FallbackTier::kNone;
  /// True when the request's deadline expired at a cancellation checkpoint
  /// mid-pipeline: the remaining expensive stages were abandoned and the
  /// gaps come from the cheap path (baseline, or 0 without one), reported
  /// as tier kBaseline. The serving queue counts these as deadline misses.
  bool deadline_expired = false;
  /// Publish sequence of the model version this call was served from (0
  /// only for an empty request, which serves nothing). Every gap in `gaps`
  /// — including degraded and expired answers — came from this one
  /// version: a hot swap mid-call can never mix versions within a result.
  uint64_t model_sequence = 0;
};

/// Tap on completed prediction batches — the online accuracy tracker's
/// feed (eval/online_accuracy.h). Invoked on the predicting thread after
/// the batch is fully resolved (including deadline-expired answers, which
/// are served predictions too). Implementations must be thread-safe:
/// concurrent PredictBatch callers invoke it concurrently.
class PredictionObserver {
 public:
  virtual ~PredictionObserver() = default;
  /// `result.gaps[i]` answers `area_ids[i]` for the gap window starting at
  /// absolute minute `now_abs`. `activity[i]` is the input-activity scalar
  /// of area_ids[i]'s assembled features (core::InputActivity — the PSI
  /// drift feature); empty when the batch skipped assembly (baseline tier
  /// or an expired deadline).
  virtual void OnPrediction(const std::vector<int>& area_ids,
                            const PredictResult& result,
                            const std::vector<float>& activity,
                            int64_t now_abs) = 0;
};

/// Staleness thresholds of the fallback ladder, all in minutes.
struct FallbackConfig {
  /// Weather/traffic lags this recent count as fresh (feeds publish once a
  /// minute; 2 tolerates ordinary pipeline jitter without degrading).
  int env_fresh_minutes = 2;
  /// Zero-order-hold horizon for a stale weather/traffic feed; beyond it
  /// the unknown-value encoding (type 0 / zeros) takes over.
  int weather_hold_minutes = 15;
  int traffic_hold_minutes = 15;
  /// No order anywhere in the city for this long means the order feed is
  /// stalled (orders arrive every minute citywide at any realistic scale;
  /// a single quiet area is normal sparsity and never degrades).
  int order_stall_minutes = 20;
  /// An order-feed outage past this long falls all the way back to the
  /// EmpiricalAverage baseline.
  int baseline_after_minutes = 120;
};

/// Live serving front-end for a trained DeepSD model — the deployment shape
/// the paper's conclusion describes ("incorporating our prediction model
/// into the scheduling system of Didi").
///
/// Real-time vectors come from an OrderStreamBuffer fed by the live event
/// stream; the per-day-of-week historical ("empirical") vectors come from a
/// FeatureAssembler built over the training period. Every prediction
/// resolves against a store::VersionedModel, so the served model can be
/// hot-swapped. Feed events, advance the clock, query gaps:
///
///   store::VersionedModel versions(artifact);          // any ModelVersion
///   OnlinePredictor predictor(&versions, &assembler);   // or (&model, ...)
///   predictor.buffer().AddOrder(order);                 // as events arrive
///   predictor.AdvanceTo(day, minute);                   // move the clock
///   PredictResult r = predictor.PredictBatch(areas);
///
/// Predictions degrade gracefully instead of failing when feeds stall: see
/// FallbackTier. CurrentTier() and the per-call PredictResult::tier expose
/// the degradation level, and the serving/degraded_predictions counter
/// (with per-tier counters) tracks it in the metrics registry.
class OnlinePredictor {
 public:
  /// Predictions resolve against `versions`' current published model —
  /// pinned per call, so one call never mixes versions — and SwapModel()
  /// publishes replacements with zero dropped or blocked requests
  /// (store/versioned_model.h). `versions` must already hold a published
  /// version (the swap path replaces models, it does not bootstrap an
  /// empty predictor). `versions` and `history` must outlive the predictor
  /// and share the same window / normalization configuration.
  OnlinePredictor(store::VersionedModel* versions,
                  const feature::FeatureAssembler* history,
                  FallbackConfig fallback = {});
  /// Serves an in-memory model: the predictor owns a VersionedModel whose
  /// sequence 1 is a store::BorrowedVersion of `model` (no packaged
  /// baseline). `model` must outlive the predictor.
  OnlinePredictor(const core::DeepSDModel* model,
                  const feature::FeatureAssembler* history,
                  FallbackConfig fallback = {});

  OrderStreamBuffer& buffer() { return buffer_; }
  const OrderStreamBuffer& buffer() const { return buffer_; }

  /// Publishes a new model version: requests already in flight finish on
  /// the version they pinned, every later request sees the new one.
  /// InvalidArgument when the version is serving-incompatible with the
  /// current one.
  util::Status SwapModel(std::shared_ptr<const store::ModelVersion> version);

  /// The publish sequence the next request would pin.
  uint64_t current_model_sequence() const {
    return versions_->stats().current_sequence;
  }

  /// Attaches the last-resort baseline (tier 3). Optional — without it the
  /// ladder stops at the empirical block. `baseline` must outlive the
  /// predictor and be Fit on the same training period as `history`. The
  /// baseline packaged with the pinned model version wins; this one is
  /// used only when the version ships none.
  void set_baseline(const baselines::EmpiricalAverage* baseline) {
    baseline_ = baseline;
  }

  const FallbackConfig& fallback_config() const { return fallback_; }

  /// The degradation tier the next prediction would be served at, from the
  /// current feed staleness. Cheap (three clock reads).
  FallbackTier CurrentTier() const;

  /// Attaches (or detaches, with nullptr) the prediction tap. The observer
  /// must be thread-safe and outlive the predictor or be detached first.
  void set_prediction_observer(PredictionObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  /// Moves the serving clock (delegates to the buffer).
  void AdvanceTo(int day, int minute) { buffer_.AdvanceTo(day, minute); }

  /// Predicted gaps over [now, now+10) for a set of areas (all of them,
  /// or the areas one shard owns), in the order given, with the per-call
  /// outcome. Tier decision, then a parallel row fill straight into one
  /// batch and a forward pass over its rows (or the baseline at tier 3),
  /// then the non-finite output guard. Assembly and the forward pass are
  /// distributed over the shared thread pool; results are bit-identical
  /// for any --threads setting (docs/parallelism.md). Latency lands in the
  /// serving/predict_batch_us histogram.
  ///
  /// `deadline` is checked at cheap cancellation checkpoints — on entry,
  /// per feature-assembly chunk, and per 16-row forward chunk — and once
  /// it expires the remaining expensive stages are abandoned in favor of
  /// the cheap path (see PredictResult::deadline_expired). Answers that
  /// are served never depend on the deadline. Counted in
  /// serving/predict_deadline_expired when abandoned.
  ///
  /// An empty `pinned` pins the current version for the call. A non-empty
  /// one is the scatter-gather path: ShardedPredictor::PredictCity pins
  /// ONE version and passes it to every shard's queue, so all slices of
  /// one city call resolve against the same model even while SwapModel
  /// publishes concurrently.
  PredictResult PredictBatch(const std::vector<int>& area_ids,
                             util::Deadline deadline = {},
                             store::PinnedModel pinned = {}) const;

  /// The assembled live features for one area at the current tier
  /// (exposed for tests: with fresh feeds it must agree with the offline
  /// FeatureAssembler on identical data).
  feature::ModelInput AssembleLive(int area) const;

  /// The cheapest answer available — the baseline per area, or 0 without
  /// one. This is the bottom rung every degraded path lands on; the
  /// sharded scatter-gather also answers a *shed* shard's areas from it so
  /// one drowning shard degrades instead of failing the whole city call.
  /// Resolved against `pinned` like PredictBatch: a shed shard slice must
  /// be answered from the same version as its siblings.
  std::vector<float> CheapGaps(const std::vector<int>& area_ids,
                               store::PinnedModel pinned = {}) const;

 private:
  OnlinePredictor(std::unique_ptr<store::VersionedModel> owned,
                  const feature::FeatureAssembler* history,
                  FallbackConfig fallback);

  /// The pinned version one call serves from, and its payload.
  struct Resolved {
    store::PinnedModel pinned;
    const core::DeepSDModel* model = nullptr;
    const baselines::EmpiricalAverage* baseline = nullptr;
  };
  /// Resolves `pinned`, first pinning the current version into `own` when
  /// it is empty. The baseline is the version's, else set_baseline's.
  Resolved Resolve(store::PinnedModel pinned,
                   store::VersionedModel::Ref* own) const;
  /// CurrentTier against a specific model (the tier depends on which
  /// input blocks the model consumes).
  FallbackTier TierFor(const core::DeepSDModel& model) const;
  /// Takes the one buffer snapshot a call reads at `tier` (held env feeds
  /// from kZeroOrderHold on) and normalises its citywide weather block
  /// once: out-of-vocabulary types become 0, reals are standardised.
  void TakeInputs(const int* areas, size_t n, FallbackTier tier,
                  const core::DeepSDModel& model,
                  OrderStreamBuffer::Snapshot* snap) const;
  /// The row fill behind every live assembly: writes rows [begin, end) of
  /// `batch` (already shaped for the call) at `tier`, row r with the
  /// features of request index i = index[r] (r when `index` is null): area
  /// areas[i] and row i of `snap` (taken for `areas` by TakeInputs), plus
  /// the assembler's history in place. A batch with projections gets no
  /// H^t: its p and Proj(E^t) come from the projection cache.
  void FillRows(const int* areas, const uint32_t* index, size_t begin,
                size_t end, FallbackTier tier,
                const OrderStreamBuffer::Snapshot& snap,
                core::Batch* batch) const;

  /// The serving-day state of DeepSD's extended blocks
  /// (docs/performance.md, "Projection ring"). The weekday weights p come
  /// from a softmax over (AreaID, WeekID), so they are constant for a
  /// serving day, and live history does not depend on the serving day, so
  /// the Proj(E^{t+10}) a tick at t computes is the Proj(E^t) the tick at
  /// t+10 needs. Per area this holds p and a ring of Proj(E) rows
  /// kRingMinutes deep, for all three signals. Entries hold only under the
  /// key they were written with: a call under another key (new model or
  /// version, retrained parameters, another kernel mode or serving day)
  /// clears them. Thread-safe; the lock is held only to copy rows.
  class ProjectionCache {
   public:
    /// Minutes t..t+10: the ring slot a tick reads plus the ten it fills
    /// ahead of it.
    static constexpr int kRingMinutes = data::kGapWindow + 1;

    struct Key {
      const core::DeepSDModel* model = nullptr;
      uint64_t sequence = 0;
      nn::kernels::KernelMode kernel_mode = nn::kernels::KernelMode::kBlocked;
      int day = -1;
      std::vector<uint64_t> params;  ///< DeepSDModel::ExtendedStamp
      bool operator==(const Key&) const = default;
    };

    explicit ProjectionCache(int num_areas)
        : num_areas_(static_cast<size_t>(num_areas)) {}

    /// Orders the request rows so that those hitting at minute `t` come
    /// first (p cached and Proj(E^t) in the ring; none when `!allow_hits`):
    /// `order[i]` is the request index of row i. Shapes `hits` for them,
    /// with their p and Proj(E^t) copied in, and `misses` with every
    /// feature block for the rest. Returns the number of hits.
    size_t Split(const Key& key, const std::vector<int>& areas, int t,
                 bool allow_hits, int window, std::vector<uint32_t>* order,
                 core::Batch* hits, core::Batch* misses);
    /// Stores what a forward over those rows at minute `t` produced: each
    /// row's p and Proj(E^{t+10}), `state` laid out as
    /// DeepSDModel::ExtendedState over all rows in `order`. Dropped when
    /// the cache moved to another key meanwhile.
    void Store(const Key& key, const std::vector<int>& areas,
               const std::vector<uint32_t>& order, int t,
               const core::DeepSDModel::ExtendedState& state);

   private:
    /// Clears every entry and re-keys to `key` (caller holds mu_).
    void Reset(const Key& key);

    const size_t num_areas_;
    std::mutex mu_;  ///< Guards every member below.
    Key key_;
    int proj_dim_ = 0;
    std::vector<uint8_t> has_p_;  ///< [area]
    std::vector<float> p_;        ///< [area][signal][7]
    std::vector<int> stamp_;      ///< [area][slot]: minute held, -1 none
    std::vector<float> ring_;     ///< [area][slot][signal][proj_dim]
  };

  /// Fills `key` for a call serving `day` from `rm`.
  static void CacheKey(const Resolved& rm, int day,
                       ProjectionCache::Key* key);

  /// Set only by the in-memory-model constructor.
  std::unique_ptr<store::VersionedModel> owned_versions_;
  store::VersionedModel* versions_;
  const feature::FeatureAssembler* history_;
  const baselines::EmpiricalAverage* baseline_ = nullptr;
  FallbackConfig fallback_;
  std::atomic<PredictionObserver*> observer_{nullptr};
  OrderStreamBuffer buffer_;
  mutable ProjectionCache cache_;
};

}  // namespace serving
}  // namespace deepsd

#endif  // DEEPSD_SERVING_ONLINE_PREDICTOR_H_
