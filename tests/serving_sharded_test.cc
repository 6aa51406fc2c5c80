// Sharded scatter-gather serving (docs/sharding.md). The spine is the
// shard-equivalence contract: PredictCity() at ANY shard count is bitwise
// identical to the 1-shard path (and to a direct OnlinePredictor) under an
// infinite deadline — sharding is a throughput/isolation decision, never
// an accuracy one. Around it: scatter-gather accounting invariants,
// per-shard deadline budgeting driven through the virtual-clock budget
// hook, citywide stall detection across shard buffers, and the
// drain-vs-in-flight-gather race.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/empirical_average.h"
#include "src/serving/online_predictor.h"
#include "src/serving/sharded_predictor.h"
#include "src/util/deadline.h"
#include "tests/test_util.h"

namespace deepsd {
namespace serving {
namespace {

class ShardedPredictorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 12 areas so 8 shards nearly all own something; small days/model so
    // a full equivalence sweep stays cheap on the 1-core CI runner.
    ds_ = deepsd::testing::MakeSmallCity(12, 12, 616);
    feature::FeatureConfig fc;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 10);
    store_ = std::make_unique<nn::ParameterStore>();
    rng_ = std::make_unique<util::Rng>(1);
    core::DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.use_weather = true;
    config.use_traffic = true;
    model_ = std::make_unique<core::DeepSDModel>(
        config, core::DeepSDModel::Mode::kBasic, store_.get(), rng_.get());
    versions_ = std::make_unique<store::VersionedModel>(
        std::make_shared<store::BorrowedVersion>(model_.get()));
    baseline_.Fit(data::MakeItems(ds_, 0, 10, 20, 1430, 10));

    direct_ = std::make_unique<OnlinePredictor>(model_.get(),
                                                assembler_.get());
    direct_->set_baseline(&baseline_);
    ReplayFreshFeeds(direct_->buffer(), 11, 700);
    for (int a = 0; a < ds_.num_areas(); ++a) areas_.push_back(a);
  }

  /// Replays fully fresh feeds up to minute t of `day`. Sink is anything
  /// with the AdvanceTo / AddOrder / AddWeather / AddTraffic surface — an
  /// OrderStreamBuffer or a ShardedPredictor — so the direct predictor and
  /// every sharded configuration see the identical event stream.
  template <typename Sink>
  void ReplayFreshFeeds(Sink& sink, int day, int t) {
    const int start = t - 60;
    sink.AdvanceTo(day, start);
    for (int ts = start; ts < t; ++ts) data::ReplayMinute(ds_, day, ts, sink);
    sink.AdvanceTo(day, t);
  }

  /// A sharded predictor over `shards` shards with fresh feeds replayed
  /// and the baseline attached — the healthy starting state of each test.
  std::unique_ptr<ShardedPredictor> MakeSharded(
      int shards, ShardedPredictorConfig config = {}) {
    config.ring.num_shards = shards;
    auto sharded = std::make_unique<ShardedPredictor>(
        versions_.get(), assembler_.get(), std::move(config));
    sharded->set_baseline(&baseline_);
    ReplayFreshFeeds(*sharded, 11, 700);
    return sharded;
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::unique_ptr<nn::ParameterStore> store_;
  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<core::DeepSDModel> model_;
  std::unique_ptr<store::VersionedModel> versions_;
  baselines::EmpiricalAverage baseline_;
  std::unique_ptr<OnlinePredictor> direct_;
  std::vector<int> areas_;
};

// ------------------------------------------------------ equivalence spine

TEST_F(ShardedPredictorTest, AnyShardCountMatchesDirectPathBitwise) {
  // The contract the whole design rests on: with healthy feeds and an
  // infinite deadline, shard count is invisible in the bits.
  const std::vector<float> want = direct_->PredictBatch(areas_).gaps;
  for (int shards : {1, 2, 4, 8}) {
    auto sharded = MakeSharded(shards);
    CityPredictResult r =
        sharded->PredictCity(areas_, util::Deadline::Infinite());
    EXPECT_EQ(r.tier, FallbackTier::kNone) << shards << " shards";
    EXPECT_TRUE(r.fully_served) << shards << " shards";
    EXPECT_FALSE(r.deadline_expired) << shards << " shards";
    ASSERT_EQ(r.gaps.size(), want.size()) << shards << " shards";
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(r.gaps[i], want[i])
          << shards << " shards, area " << areas_[i]
          << " — sharding must never change prediction bits";
    }
    for (const ShardOutcome& o : r.shards) {
      EXPECT_EQ(o.verdict, AdmitVerdict::kAdmitted);
      EXPECT_EQ(o.tier, FallbackTier::kNone);
    }
  }
}

TEST_F(ShardedPredictorTest, EquivalenceHoldsForScrambledDuplicateRequests) {
  // The merge maps slice positions back through the ring partition; a
  // request in adversarial order with duplicates must still come back in
  // caller order, bitwise equal to the direct call on the same vector.
  std::vector<int> request;
  for (int i = 0; i < 40; ++i) {
    request.push_back((i * 7 + 3) % ds_.num_areas());
  }
  const std::vector<float> want = direct_->PredictBatch(request).gaps;
  for (int shards : {2, 8}) {
    auto sharded = MakeSharded(shards);
    CityPredictResult r =
        sharded->PredictCity(request, util::Deadline::Infinite());
    ASSERT_EQ(r.gaps.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(r.gaps[i], want[i]) << shards << " shards, item " << i;
    }
  }
}

TEST_F(ShardedPredictorTest, EquivalenceHoldsWhileDegraded) {
  // Sharding must not change WHICH rung of the fallback ladder serves
  // either: stall the order feed 30 minutes past the replay and the
  // degraded answer must also be shard-count-invariant.
  direct_->AdvanceTo(11, 730);
  const FallbackTier want_tier = direct_->CurrentTier();
  ASSERT_NE(want_tier, FallbackTier::kNone);
  PredictResult direct_result =
      direct_->PredictBatch(areas_, util::Deadline::Infinite());
  EXPECT_EQ(direct_result.tier, want_tier);

  for (int shards : {1, 4}) {
    auto sharded = MakeSharded(shards);
    sharded->AdvanceTo(11, 730);
    CityPredictResult r =
        sharded->PredictCity(areas_, util::Deadline::Infinite());
    EXPECT_EQ(r.tier, want_tier) << shards << " shards";
    ASSERT_EQ(r.gaps.size(), direct_result.gaps.size());
    for (size_t i = 0; i < r.gaps.size(); ++i) {
      ASSERT_EQ(r.gaps[i], direct_result.gaps[i])
          << shards << " shards, area " << areas_[i];
    }
  }
}

TEST_F(ShardedPredictorTest, PredictCityAllCoversEveryArea) {
  auto sharded = MakeSharded(4);
  CityPredictResult r = sharded->PredictCity(areas_);
  ASSERT_EQ(r.gaps.size(), static_cast<size_t>(ds_.num_areas()));
  size_t routed = 0;
  for (const ShardOutcome& o : r.shards) routed += o.num_areas;
  EXPECT_EQ(routed, r.gaps.size());
  const std::vector<float> want = direct_->PredictBatch(areas_).gaps;
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r.gaps[i], want[i]);
}

// ------------------------------------------------- scatter-gather routing

TEST_F(ShardedPredictorTest, StallClockIsCitywideAcrossShardBuffers) {
  // Orders land in their owner's buffer only, but every replica's
  // order-freshness clock must agree with the unsharded one — a shard
  // owning only quiet areas must not think the feed died.
  auto sharded = MakeSharded(4);
  const std::vector<int> loads =
      sharded->ring().LoadHistogram(ds_.num_areas());
  size_t buffered_total = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    const OrderStreamBuffer& buffer =
        sharded->shard_predictor(s).buffer();
    EXPECT_EQ(buffer.last_order_abs(), direct_->buffer().last_order_abs())
        << "shard " << s;
    // Tier only matters for shards that own areas: an idle shard never
    // receives traffic records (they route to owners) so its own replica
    // reports a degraded tier — and is never routed a request either.
    if (loads[static_cast<size_t>(s)] > 0) {
      EXPECT_EQ(sharded->shard_predictor(s).CurrentTier(),
                FallbackTier::kNone)
          << "shard " << s;
    }
    buffered_total += buffer.buffered_orders();
  }
  // ...while the orders themselves were routed, not broadcast.
  EXPECT_EQ(buffered_total, direct_->buffer().buffered_orders());
}

TEST_F(ShardedPredictorTest, MalformedOrderIsRejectedExactlyOnce) {
  auto sharded = MakeSharded(4);
  std::vector<int64_t> clocks;
  for (int s = 0; s < 4; ++s) {
    clocks.push_back(sharded->shard_predictor(s).buffer().last_order_abs());
  }
  data::Order bad;
  bad.day = 11;
  bad.ts = 705;
  bad.start_area = 9999;  // no such area
  sharded->AddOrder(bad);
  uint64_t rejected = 0;
  for (int s = 0; s < 4; ++s) {
    rejected += sharded->shard_predictor(s).buffer().rejected_events();
    // Garbage must not advance anyone's citywide freshness clock.
    EXPECT_EQ(sharded->shard_predictor(s).buffer().last_order_abs(),
              clocks[static_cast<size_t>(s)])
        << "shard " << s;
  }
  EXPECT_EQ(rejected, 1u);
}

TEST_F(ShardedPredictorTest, AccountingInvariantPerShardAndMerged) {
  auto sharded = MakeSharded(4);
  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    CityPredictResult r =
        sharded->PredictCity(areas_, util::Deadline::Infinite());
    ASSERT_EQ(r.gaps.size(), areas_.size());
  }
  sharded->Drain();

  ShardedStats stats = sharded->stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  uint64_t offered_total = 0;
  int busy_shards = 0;
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const ServingQueueStats& q = stats.per_shard[s];
    EXPECT_EQ(q.offered, q.admitted + q.shed_total()) << "shard " << s;
    EXPECT_EQ(q.completed, q.admitted) << "shard " << s;
    offered_total += q.offered;
    if (q.offered > 0) {
      ++busy_shards;
      EXPECT_EQ(q.offered, static_cast<uint64_t>(kCalls)) << "shard " << s;
    }
  }
  ServingQueueStats merged = stats.merged();
  EXPECT_EQ(merged.offered, offered_total);
  EXPECT_EQ(merged.offered, merged.admitted + merged.shed_total());
  // Every call fans out once per shard that owns any of the 12 areas.
  EXPECT_EQ(offered_total,
            static_cast<uint64_t>(kCalls) * static_cast<uint64_t>(
                                                busy_shards));
  EXPECT_GE(busy_shards, 2) << "the ring left 12 areas on one shard";
}

// ------------------------------------------- per-shard deadline budgeting

TEST_F(ShardedPredictorTest, ExpiredShardAnswersBaselineWhileSiblingsFresh) {
  // Satellite contract, driven by the virtual-clock budget hook: shard
  // `victim`'s budget is an already-expired absolute deadline, siblings
  // get infinity. Only the victim's slice may degrade.
  const int kShards = 4;
  ShardRingConfig probe_ring;
  probe_ring.num_shards = kShards;
  const int victim = ShardRing(probe_ring).ShardOf(areas_[0]);

  ShardedPredictorConfig config;
  config.shard_budget_fn = [victim](int shard, util::Deadline caller) {
    (void)caller;
    return shard == victim ? util::Deadline::AtSteadyUs(1)
                           : util::Deadline::Infinite();
  };
  auto sharded = MakeSharded(kShards, config);
  const std::vector<float> fresh = direct_->PredictBatch(areas_).gaps;

  CityPredictResult r =
      sharded->PredictCity(areas_, util::Deadline::Infinite());

  // Merged verdict: worst tier wins, and the report says who missed.
  EXPECT_EQ(r.tier, FallbackTier::kBaseline);
  EXPECT_FALSE(r.fully_served);
  bool saw_victim = false;
  for (const ShardOutcome& o : r.shards) {
    if (o.shard == victim) {
      saw_victim = true;
      EXPECT_EQ(o.verdict, AdmitVerdict::kShedDeadline);
      EXPECT_EQ(o.tier, FallbackTier::kBaseline);
    } else {
      EXPECT_EQ(o.verdict, AdmitVerdict::kAdmitted) << "shard " << o.shard;
      EXPECT_EQ(o.tier, FallbackTier::kNone) << "shard " << o.shard;
      EXPECT_FALSE(o.deadline_expired) << "shard " << o.shard;
    }
  }
  EXPECT_TRUE(saw_victim);

  // Victim areas answer from the baseline; sibling areas stay bitwise
  // fresh — degradation is contained to the shard that missed.
  const int minute = direct_->buffer().minute();
  for (size_t i = 0; i < areas_.size(); ++i) {
    if (sharded->ShardOf(areas_[i]) == victim) {
      EXPECT_EQ(r.gaps[i], baseline_.Predict(areas_[i], minute))
          << "area " << areas_[i];
    } else {
      EXPECT_EQ(r.gaps[i], fresh[i]) << "area " << areas_[i];
    }
  }

  // Per-shard expiry counters point at the victim and only the victim.
  ShardedStats stats = sharded->stats();
  for (int s = 0; s < kShards; ++s) {
    const ServingQueueStats& q = stats.per_shard[static_cast<size_t>(s)];
    if (s == victim) {
      EXPECT_EQ(q.shed_deadline, 1u);
    } else {
      EXPECT_EQ(q.shed_deadline + q.deadline_misses, 0u) << "shard " << s;
    }
  }
}

// Holds a predictor's worker inside OnPrediction until a deadline, armed
// from another thread, has expired: the worker then cannot reach anything
// queued behind the current request before that deadline has passed.
class ExpiryGate : public PredictionObserver {
 public:
  void Arm(util::Deadline deadline) {
    std::lock_guard<std::mutex> lock(mu_);
    deadline_ = deadline;
    armed_ = true;
    armed_cv_.notify_all();
  }

  void OnPrediction(const std::vector<int>&, const PredictResult&,
                    const std::vector<float>&, int64_t) override {
    util::Deadline deadline;
    {
      std::unique_lock<std::mutex> lock(mu_);
      armed_cv_.wait(lock, [this] { return armed_; });
      deadline = deadline_;
    }
    while (!deadline.expired()) std::this_thread::yield();
  }

 private:
  std::mutex mu_;
  std::condition_variable armed_cv_;
  bool armed_ = false;
  util::Deadline deadline_;
};

TEST_F(ShardedPredictorTest, BudgetPressureDegradesOnlyTheSlowShard) {
  // The mid-flight variant: the victim's worker is held on a gate by a
  // direct request until the victim slice's small budget has expired, so
  // the slice either sheds at admission or is admitted and misses — both
  // legitimate expiry outcomes. Either way the victim must degrade alone
  // and be counted in its own shard's expiry counters.
  const int kShards = 4;
  ShardRingConfig probe_ring;
  probe_ring.num_shards = kShards;
  const int victim = ShardRing(probe_ring).ShardOf(areas_[0]);

  ExpiryGate gate;
  ShardedPredictorConfig config;
  config.shard_budget_fn = [victim, &gate](int shard, util::Deadline caller) {
    (void)caller;
    if (shard != victim) return util::Deadline::Infinite();
    const util::Deadline budget = util::Deadline::After(3000);
    gate.Arm(budget);
    return budget;
  };
  auto sharded = MakeSharded(kShards, config);
  sharded->shard_predictor(victim).set_prediction_observer(&gate);

  auto blocker_future = sharded->shard_queue(victim).Submit(
      {areas_[0]}, util::Deadline::Infinite());

  CityPredictResult r =
      sharded->PredictCity(areas_, util::Deadline::Infinite());
  blocker_future.get();

  bool victim_degraded = false;
  for (const ShardOutcome& o : r.shards) {
    if (o.shard == victim) {
      victim_degraded = o.verdict != AdmitVerdict::kAdmitted ||
                        o.deadline_expired;
    } else {
      EXPECT_EQ(o.verdict, AdmitVerdict::kAdmitted) << "shard " << o.shard;
      EXPECT_EQ(o.tier, FallbackTier::kNone) << "shard " << o.shard;
    }
  }
  EXPECT_TRUE(victim_degraded);
  EXPECT_EQ(r.tier, FallbackTier::kBaseline);
  const ServingQueueStats q = sharded->shard_queue(victim).stats();
  EXPECT_GE(q.shed_deadline + q.deadline_misses, 1u);
  // Every area answered regardless.
  ASSERT_EQ(r.gaps.size(), areas_.size());
  for (float g : r.gaps) EXPECT_TRUE(std::isfinite(g));
  sharded->shard_predictor(victim).set_prediction_observer(nullptr);
}

TEST_F(ShardedPredictorTest, MergeSlackCarvesFiniteBudgetsOnly) {
  ShardedPredictorConfig config;
  config.merge_slack_us = 1'000'000'000;  // absurd slack
  auto sharded = MakeSharded(2, config);
  // Infinite caller deadlines must pass through infinite — the
  // equivalence path never gets a carved (finite) budget.
  CityPredictResult r =
      sharded->PredictCity(areas_, util::Deadline::Infinite());
  EXPECT_EQ(r.tier, FallbackTier::kNone);
  EXPECT_TRUE(r.fully_served);
  const std::vector<float> want = direct_->PredictBatch(areas_).gaps;
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r.gaps[i], want[i]);

  // A finite caller budget minus the absurd slack is already expired at
  // every shard: all slices shed, all areas still answered (baseline).
  CityPredictResult carved =
      sharded->PredictCity(areas_, util::Deadline::After(10'000'000));
  EXPECT_FALSE(carved.fully_served);
  EXPECT_EQ(carved.tier, FallbackTier::kBaseline);
  ASSERT_EQ(carved.gaps.size(), areas_.size());
  const int minute = direct_->buffer().minute();
  for (size_t i = 0; i < areas_.size(); ++i) {
    EXPECT_EQ(carved.gaps[i], baseline_.Predict(areas_[i], minute));
  }
}

// ------------------------------------------------------- isolation, drain

TEST_F(ShardedPredictorTest, PerShardBreakersIsolateFailure) {
  ShardedPredictorConfig config;
  config.per_shard_breakers = true;
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration_us = 60'000'000;
  auto sharded = MakeSharded(4, config);
  const int victim = sharded->ShardOf(areas_[0]);

  // Trip ONLY the victim's breaker, through its public failure feed:
  // stall the feeds far past baseline_after_minutes so a served answer
  // lands on tier kBaseline, which the victim's queue records as a
  // breaker failure (failure_threshold = 1 trips immediately). Sibling
  // queues see no traffic here, so their breakers stay closed.
  sharded->AdvanceTo(11, 700 + 130);
  ServingResponse tripping = sharded->shard_queue(victim)
                                 .Submit({areas_[0]},
                                         util::Deadline::Infinite())
                                 .get();
  ASSERT_TRUE(tripping.admitted());
  ASSERT_EQ(tripping.result.tier, FallbackTier::kBaseline);

  CityPredictResult r =
      sharded->PredictCity(areas_, util::Deadline::Infinite());
  // The victim sheds on its open breaker; siblings still serve (their
  // tier reflects the stalled feeds, but they are admitted and answering).
  bool victim_shed_by_breaker = false;
  for (const ShardOutcome& o : r.shards) {
    if (o.shard == victim) {
      victim_shed_by_breaker = o.verdict == AdmitVerdict::kShedBreaker;
    } else {
      EXPECT_EQ(o.verdict, AdmitVerdict::kAdmitted) << "shard " << o.shard;
    }
  }
  EXPECT_TRUE(victim_shed_by_breaker);
  EXPECT_GE(sharded->shard_queue(victim).stats().shed_breaker, 1u);
}

TEST_F(ShardedPredictorTest, DrainRacingScatterGatherResolvesEverything) {
  // Satellite regression at the sharded level: callers hold unresolved
  // futures inside PredictCity while Drain() closes every shard queue.
  // Every in-flight call must come back fully populated; post-drain calls
  // degrade to the baseline with kShedDraining on every touched shard.
  auto sharded = MakeSharded(4);
  std::atomic<bool> go{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([this, &sharded, &go, &bad] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 10; ++i) {
        CityPredictResult r =
            sharded->PredictCity(areas_, util::Deadline::Infinite());
        if (r.gaps.size() != areas_.size()) bad.fetch_add(1);
        for (float g : r.gaps) {
          if (!std::isfinite(g)) bad.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  sharded->Drain();  // races the callers; must never strand a future
  for (auto& th : callers) th.join();
  EXPECT_EQ(bad.load(), 0);

  CityPredictResult after =
      sharded->PredictCity(areas_, util::Deadline::Infinite());
  EXPECT_FALSE(after.fully_served);
  EXPECT_EQ(after.tier, FallbackTier::kBaseline);
  for (const ShardOutcome& o : after.shards) {
    EXPECT_EQ(o.verdict, AdmitVerdict::kShedDraining);
  }
  const int minute = direct_->buffer().minute();
  for (size_t i = 0; i < areas_.size(); ++i) {
    EXPECT_EQ(after.gaps[i], baseline_.Predict(areas_[i], minute));
  }

  ShardedStats stats = sharded->stats();
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    const ServingQueueStats& q = stats.per_shard[s];
    EXPECT_EQ(q.offered, q.admitted + q.shed_total()) << "shard " << s;
    EXPECT_EQ(q.completed, q.admitted) << "shard " << s;
  }
}

}  // namespace
}  // namespace serving
}  // namespace deepsd
