// Parity of the serving projection cache: OnlinePredictor's per-day cache
// of the weekday weights p and its ring of Proj(E) rows. Every answer a
// predictor serves, whether its rows hit the cache or miss it, equals
// AssembleLive + DeepSDModel::Predict over the full graph bit for bit: at
// every minute of a served day and across midnight, in every kernel mode
// and fallback tier, through a model swap and a kernel-mode change, from a
// cold cache, under concurrent callers and under a re-entrant observer.
#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/empirical_average.h"
#include "src/data/dataset.h"
#include "src/feature/feature_assembler.h"
#include "src/nn/kernels.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/serving/online_predictor.h"
#include "src/store/versioned_model.h"
#include "tests/test_util.h"

namespace deepsd {
namespace {

using nn::kernels::KernelMode;
using serving::FallbackTier;
using serving::OnlinePredictor;
using serving::PredictResult;

constexpr int kRefDays = 10;
constexpr int kServedDay = 10;  // days 10 and 11 are served live

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

uint64_t Count(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// An advanced model with random weights and raw outputs, publishable: a
/// fresh model clamps most answers to 0 and starts its residual branches
/// at zero, which would hide a wrong projection in any of them.
class RandomVersion : public store::ModelVersion {
 public:
  RandomVersion(int num_areas, uint64_t seed,
                core::DeepSDConfig config = core::DeepSDConfig()) {
    config.num_areas = num_areas;
    config.use_weather = true;
    config.use_traffic = true;
    config.clamp_nonnegative = false;
    util::Rng rng(seed);
    model_ = std::make_unique<core::DeepSDModel>(
        config, core::DeepSDModel::Mode::kAdvanced, &params_, &rng);
    for (const std::unique_ptr<nn::Parameter>& p : params_.parameters()) {
      nn::Tensor value(p->value.rows(), p->value.cols());
      for (float& v : value.flat()) {
        v = static_cast<float>(rng.Uniform(-0.3, 0.3));
      }
      p->InstallValue(std::move(value), 0.0f);
    }
  }

  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return nullptr;
  }
  std::string version_id() const override { return "random"; }
  nn::ParameterStore* params() { return &params_; }

 private:
  nn::ParameterStore params_;
  std::unique_ptr<core::DeepSDModel> model_;
};

class ProjectionCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(5, 12, 616);
    feature::FeatureConfig fc;
    assembler_ =
        std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, kRefDays);
    baseline_.Fit(data::MakeItems(ds_, 0, kRefDays, 20, 1430, 10));
    was_enabled_ = obs::Enabled();
    obs::SetEnabled(true);
  }
  void TearDown() override { obs::SetEnabled(was_enabled_); }

  /// A versioned predictor over `versions` with the baseline attached.
  std::unique_ptr<OnlinePredictor> MakePredictor(
      store::VersionedModel* versions) const {
    auto p = std::make_unique<OnlinePredictor>(versions, assembler_.get());
    p->set_baseline(&baseline_);
    return p;
  }

  /// Feeds absolute minute `abs` (each feed unless withheld) and moves the
  /// clock to the minute after it.
  void Feed(serving::OrderStreamBuffer* buffer, int abs, bool orders = true,
            bool weather = true) const {
    const int day = abs / data::kMinutesPerDay;
    const int ts = abs % data::kMinutesPerDay;
    buffer->AdvanceTo(day, ts);
    for (int a = 0; a < ds_.num_areas(); ++a) {
      if (orders) {
        for (const data::Order& o : ds_.OrdersAt(a, day, ts)) {
          buffer->AddOrder(o);
        }
      }
      data::TrafficRecord tr = ds_.TrafficAt(a, day, ts);
      tr.area = a;
      tr.day = day;
      tr.ts = ts;
      buffer->AddTraffic(tr);
    }
    if (weather) {
      data::WeatherRecord w = ds_.WeatherAt(day, ts);
      w.day = day;
      w.ts = ts;
      buffer->AddWeather(w);
    }
    buffer->AdvanceTo((abs + 1) / data::kMinutesPerDay,
                      (abs + 1) % data::kMinutesPerDay);
  }

  /// The uncached answer of `p` (serving `model`) now: AssembleLive +
  /// Predict over the full graph, or the baseline at tier 3.
  static std::vector<float> Oracle(const OnlinePredictor& p,
                                   const core::DeepSDModel& model,
                                   const std::vector<int>& areas) {
    if (p.CurrentTier() == FallbackTier::kBaseline) return p.CheapGaps(areas);
    std::vector<feature::ModelInput> inputs;
    for (int a : areas) inputs.push_back(p.AssembleLive(a));
    return model.Predict(inputs, 16);
  }

  /// The model `versions` currently publishes (kept alive by `versions`).
  static const core::DeepSDModel& Current(store::VersionedModel* versions) {
    return versions->Acquire().version()->model();
  }

  static int AbsMinute(int day, int t) {
    return day * data::kMinutesPerDay + t;
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  baselines::EmpiricalAverage baseline_;
  bool was_enabled_ = false;
};

TEST_F(ProjectionCacheTest, ServedDayEveryMinuteAndAcrossMidnight) {
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 1)).ok());
  std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
  const std::vector<int> areas = {0, 1, 2, 3, 4, 2, 0};

  // A tick at minute t hits exactly when it serves at a tier that reads no
  // H^t and a forward ran at t-10 the same day. The stream starts the
  // evening before, so the run crosses two midnights.
  const uint64_t hits0 = Count("serving/projection_hit_rows");
  const uint64_t misses0 = Count("serving/projection_miss_rows");
  uint64_t want_hits = 0;
  uint64_t forward_rows = 0;
  std::set<int> forwarded;  // absolute minutes a forward ran at
  size_t mismatches = 0;
  for (int abs = AbsMinute(kServedDay - 1, 1380);
       abs < AbsMinute(kServedDay + 1, 30); ++abs) {
    Feed(&predictor->buffer(), abs);
    const int now = abs + 1;
    const PredictResult r =
        predictor->PredictBatch(areas, util::Deadline::Infinite());
    if (!SameBits(r.gaps, Oracle(*predictor, Current(&versions), areas))) {
      ADD_FAILURE() << "day " << now / data::kMinutesPerDay << " minute "
                    << now % data::kMinutesPerDay;
      if (++mismatches > 5) return;
    }
    if (r.tier == FallbackTier::kBaseline) continue;
    forward_rows += areas.size();
    if (r.tier < FallbackTier::kEmpiricalBlock &&
        now % data::kMinutesPerDay >= data::kGapWindow &&
        forwarded.count(now - data::kGapWindow) != 0) {
      want_hits += areas.size();
    }
    forwarded.insert(now);
  }
  EXPECT_EQ(Count("serving/projection_hit_rows") - hits0, want_hits);
  EXPECT_EQ(Count("serving/projection_miss_rows") - misses0,
            forward_rows - want_hits);
  EXPECT_GT(want_hits, forward_rows / 2);
}

TEST_F(ProjectionCacheTest, KernelModesTiersSwapAndModeChangeMidDay) {
  const KernelMode modes[] = {KernelMode::kNaive, KernelMode::kBlocked,
                              KernelMode::kQuant};
  const std::vector<int> areas = {4, 0, 3, 1, 2, 4};
  for (int m = 0; m < 3; ++m) {
    nn::kernels::ScopedKernelMode scoped(modes[m]);
    store::VersionedModel versions;
    ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 1)).ok());
    std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
    std::set<FallbackTier> tiers;
    const uint64_t hits0 = Count("serving/projection_hit_rows");
    size_t mismatches = 0;
    for (int t = 200; t < 620; ++t) {
      // Weather withheld for 6 minutes (zero-order hold) and then for 30
      // (empirical block); orders for 160 (empirical block, then the
      // baseline past 120).
      const bool weather = !(t >= 260 && t < 266) && !(t >= 300 && t < 330);
      const bool orders = !(t >= 400 && t < 560);
      Feed(&predictor->buffer(), AbsMinute(kServedDay, t), orders, weather);
      if (t == 350) nn::kernels::SetKernelMode(modes[(m + 1) % 3]);
      if (t == 380) {
        ASSERT_TRUE(
            predictor->SwapModel(std::make_shared<RandomVersion>(5, 2)).ok());
      }
      const PredictResult r =
          predictor->PredictBatch(areas, util::Deadline::Infinite());
      tiers.insert(r.tier);
      if (!SameBits(r.gaps, Oracle(*predictor, Current(&versions), areas))) {
        ADD_FAILURE() << "kernel mode " << m << " minute " << t + 1
                      << " tier " << static_cast<int>(r.tier);
        if (++mismatches > 5) return;
      }
    }
    EXPECT_EQ(tiers.size(), 4u) << "kernel mode " << m;
    EXPECT_GT(Count("serving/projection_hit_rows") - hits0, 100 * areas.size())
        << "kernel mode " << m;
  }
}

TEST_F(ProjectionCacheTest, ColdCacheAnswersLikeAWarmOne) {
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 3)).ok());
  std::unique_ptr<OnlinePredictor> warm = MakePredictor(&versions);
  std::unique_ptr<OnlinePredictor> cold = MakePredictor(&versions);
  const std::vector<int> areas = {1, 3, 0, 2, 4};
  for (int t = 600; t < 700; ++t) {
    Feed(&warm->buffer(), AbsMinute(kServedDay, t));
    Feed(&cold->buffer(), AbsMinute(kServedDay, t));
    const PredictResult w =
        warm->PredictBatch(areas, util::Deadline::Infinite());
    // The cold predictor first answers at 680, then every minute: its
    // first ten ticks miss the ring, the rest hit.
    if (t < 680) continue;
    const uint64_t hits0 = Count("serving/projection_hit_rows");
    const PredictResult c =
        cold->PredictBatch(areas, util::Deadline::Infinite());
    const bool cold_hit = Count("serving/projection_hit_rows") != hits0;
    EXPECT_EQ(cold_hit, t >= 690) << "minute " << t + 1;
    EXPECT_TRUE(SameBits(w.gaps, c.gaps)) << "minute " << t + 1;
    EXPECT_TRUE(SameBits(w.gaps, Oracle(*warm, Current(&versions), areas)))
        << "minute " << t + 1;
  }
}

TEST_F(ProjectionCacheTest, AnotherServingDayStartsCold) {
  // Day 11 is another weekday than day 10, so its p differs. Serving day
  // 11 from the minute day 10 stopped at must not read the day-10 ring,
  // whose last slots carry the same minutes.
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 7)).ok());
  std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
  ASSERT_NE(ds_.WeekId(kServedDay), ds_.WeekId(kServedDay + 1));
  const std::vector<int> areas = {0, 1, 2, 3, 4};
  for (int day : {kServedDay, kServedDay + 1}) {
    const int first = day == kServedDay ? 600 : 629;
    for (int t = first; t < first + 30; ++t) {
      Feed(&predictor->buffer(), AbsMinute(day, t));
      const uint64_t hits0 = Count("serving/projection_hit_rows");
      const PredictResult r =
          predictor->PredictBatch(areas, util::Deadline::Infinite());
      EXPECT_EQ(Count("serving/projection_hit_rows") != hits0,
                t >= first + data::kGapWindow)
          << "day " << day << " minute " << t + 1;
      EXPECT_TRUE(SameBits(r.gaps, Oracle(*predictor, Current(&versions), areas)))
          << "day " << day << " minute " << t + 1;
    }
  }
}

TEST_F(ProjectionCacheTest, ParameterChangesInvalidateIt) {
  // An in-memory model keeps its pointer and sequence, so only the
  // parameter stamp can tell that p or the projections went stale: new
  // values (a fine-tune step) and, under int8 kernels, a new activation
  // calibration, which the calibrating graph writes without a version bump.
  nn::kernels::ScopedKernelMode quant(KernelMode::kQuant);
  RandomVersion v(5, 8);
  OnlinePredictor predictor(&v.model(), assembler_.get());
  const std::vector<int> areas = {3, 1, 4, 0, 2};
  util::Rng rng(9);
  for (int t = 600; t < 660; ++t) {
    Feed(&predictor.buffer(), AbsMinute(kServedDay, t));
    for (const std::unique_ptr<nn::Parameter>& p : v.params()->parameters()) {
      if (p->name.rfind("ext_", 0) != 0 && p->name.rfind("id.", 0) != 0) {
        continue;
      }
      if (t == 620) {
        nn::Tensor value(p->value.rows(), p->value.cols());
        for (float& x : value.flat()) {
          x = static_cast<float>(rng.Uniform(-0.3, 0.3));
        }
        p->InstallValue(std::move(value), p->act_absmax);
      }
      if (t == 640) p->act_absmax = 0.01f;
    }
    const PredictResult r =
        predictor.PredictBatch(areas, util::Deadline::Infinite());
    EXPECT_TRUE(SameBits(r.gaps, Oracle(predictor, v.model(), areas)))
        << "minute " << t + 1;
  }
}

TEST_F(ProjectionCacheTest, AblatedModelsStayBitwise) {
  // One-hot ids, uniform weekday weights, and a model without the
  // last-call or the waiting-time block: p then comes from a constant
  // input, and one signal's ring slots are never written.
  core::DeepSDConfig onehot_uniform;
  onehot_uniform.use_embedding = false;
  onehot_uniform.uniform_weekday_weights = true;
  onehot_uniform.use_last_call = false;
  core::DeepSDConfig no_wt;
  no_wt.use_waiting_time = false;
  const std::vector<int> areas = {2, 0, 4, 1, 3};
  for (const core::DeepSDConfig& config : {onehot_uniform, no_wt}) {
    RandomVersion v(5, 10, config);
    OnlinePredictor predictor(&v.model(), assembler_.get());
    const uint64_t hits0 = Count("serving/projection_hit_rows");
    for (int t = 600; t < 630; ++t) {
      Feed(&predictor.buffer(), AbsMinute(kServedDay, t));
      const PredictResult r =
          predictor.PredictBatch(areas, util::Deadline::Infinite());
      EXPECT_TRUE(SameBits(r.gaps, Oracle(predictor, v.model(), areas)))
          << "minute " << t + 1;
    }
    EXPECT_EQ(Count("serving/projection_hit_rows") - hits0,
              20 * areas.size());
  }
}

TEST_F(ProjectionCacheTest, ConcurrentCallersOnOverlappingAreas) {
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 4)).ok());
  std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
  const std::vector<int> sets[2] = {{0, 1, 2, 3}, {2, 3, 4, 0, 2}};
  std::atomic<int> mismatches{0};
  for (int t = 600; t < 640; ++t) {
    Feed(&predictor->buffer(), AbsMinute(kServedDay, t));
    const std::vector<float> want[2] = {
        Oracle(*predictor, Current(&versions), sets[0]),
        Oracle(*predictor, Current(&versions), sets[1])};
    std::vector<std::thread> callers;
    for (int k = 0; k < 2; ++k) {
      callers.emplace_back([&, k] {
        for (int rep = 0; rep < 4; ++rep) {
          const PredictResult r =
              predictor->PredictBatch(sets[k], util::Deadline::Infinite());
          if (!SameBits(r.gaps, want[k])) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& c : callers) c.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

/// Re-predicts a second area set from inside OnPrediction on the
/// predicting thread, the way a shadow evaluator does.
class RePredictingObserver : public serving::PredictionObserver {
 public:
  RePredictingObserver(const OnlinePredictor* predictor,
                       std::vector<int> inner)
      : predictor_(predictor), inner_(std::move(inner)) {}

  void OnPrediction(const std::vector<int>& /*area_ids*/,
                    const PredictResult& /*result*/,
                    const std::vector<float>& /*activity*/,
                    int64_t /*now_abs*/) override {
    thread_local bool nested = false;
    if (nested) return;
    nested = true;
    inner_gaps = predictor_->PredictBatch(inner_).gaps;
    nested = false;
  }

  std::vector<float> inner_gaps;

 private:
  const OnlinePredictor* predictor_;
  std::vector<int> inner_;
};

TEST_F(ProjectionCacheTest, ObserverRePredictsFromInsideOnPrediction) {
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 5)).ok());
  std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
  const std::vector<int> outer = {0, 1, 2, 3, 4};
  const std::vector<int> inner = {4, 2, 2};
  RePredictingObserver observer(predictor.get(), inner);
  predictor->set_prediction_observer(&observer);
  for (int t = 600; t < 640; ++t) {
    Feed(&predictor->buffer(), AbsMinute(kServedDay, t));
    const PredictResult r =
        predictor->PredictBatch(outer, util::Deadline::Infinite());
    EXPECT_TRUE(SameBits(r.gaps, Oracle(*predictor, Current(&versions), outer)))
        << "minute " << t + 1;
    EXPECT_TRUE(
        SameBits(observer.inner_gaps, Oracle(*predictor, Current(&versions), inner)))
        << "minute " << t + 1;
  }
  predictor->set_prediction_observer(nullptr);
}

TEST_F(ProjectionCacheTest, DeadlineExpiringMidForwardServesTheBaseline) {
  // The int8 GEMM count tells whether a call's forward had started: a
  // budget search over deadlines finds one that expires after assembly,
  // between forward chunks. Its answer is the baseline, flagged expired.
  nn::kernels::ScopedKernelMode quant(KernelMode::kQuant);
  store::VersionedModel versions;
  ASSERT_TRUE(versions.Publish(std::make_shared<RandomVersion>(5, 6)).ok());
  std::unique_ptr<OnlinePredictor> predictor = MakePredictor(&versions);
  for (int t = 580; t < 600; ++t) {
    Feed(&predictor->buffer(), AbsMinute(kServedDay, t));
  }
  std::vector<int> areas(3000);
  for (size_t i = 0; i < areas.size(); ++i) {
    areas[i] = static_cast<int>(i % 5);
  }
  const int64_t t0 = util::NowSteadyUs();
  const PredictResult full =
      predictor->PredictBatch(areas, util::Deadline::Infinite());
  int64_t lo = 0;
  int64_t hi = 2 * (util::NowSteadyUs() - t0) + 1;
  const std::vector<float> cheap = predictor->CheapGaps(areas);
  bool mid_forward = false;
  for (int probe = 0; probe < 60 && !mid_forward; ++probe) {
    const int64_t budget = (lo + hi) / 2;
    const uint64_t gemms = nn::kernels::QuantGemmCount();
    const PredictResult r =
        predictor->PredictBatch(areas, util::Deadline::After(budget));
    const bool forward_started = nn::kernels::QuantGemmCount() != gemms;
    if (!r.deadline_expired) {
      EXPECT_TRUE(SameBits(r.gaps, full.gaps));
      hi = budget;
      continue;
    }
    EXPECT_EQ(r.tier, FallbackTier::kBaseline);
    EXPECT_TRUE(SameBits(r.gaps, cheap));
    if (forward_started) {
      mid_forward = true;
    } else {
      lo = budget;
    }
    if (hi - lo < 2) {  // the host moved the boundary; widen and retry
      lo = 0;
      hi *= 2;
    }
  }
  EXPECT_TRUE(mid_forward);
}

}  // namespace
}  // namespace deepsd
