// ServingQueue admission control, deadline plumbing, and drain semantics
// (docs/robustness.md "Overload protection"). Shed decisions that depend
// on time are driven through already-expired deadlines, pre-opened
// breakers, and pre-drained rate limiters so every verdict is
// deterministic on the 1-core CI runners.

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/serving/online_predictor.h"
#include "src/serving/serving_queue.h"
#include "src/util/circuit_breaker.h"
#include "src/util/deadline.h"
#include "src/util/rate_limiter.h"
#include "tests/test_util.h"

namespace deepsd {
namespace serving {
namespace {

class ServingQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(4, 12, 616);
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
    predictor_ =
        std::make_unique<OnlinePredictor>(model_.get(), assembler_.get());
    ReplayFreshFeeds(11, 700);
    for (int a = 0; a < ds_.num_areas(); ++a) areas_.push_back(a);
  }

  /// Replays fully fresh feeds up to minute t of `day` so predictions run
  /// at tier kNone and admission, not staleness, is what's under test.
  void ReplayFreshFeeds(int day, int t) {
    OrderStreamBuffer& buffer = predictor_->buffer();
    const int start = t - 60;
    buffer.AdvanceTo(day, start);
    for (int ts = start; ts < t; ++ts) {
      data::ReplayMinute(ds_, day, ts, buffer);
    }
    buffer.AdvanceTo(day, t);
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::unique_ptr<nn::ParameterStore> store_;
  std::unique_ptr<util::Rng> rng_;
  std::unique_ptr<core::DeepSDModel> model_;
  std::unique_ptr<OnlinePredictor> predictor_;
  std::vector<int> areas_;
};

// ------------------------------------------------ predictor deadline path

TEST_F(ServingQueueTest, InfiniteDeadlineMatchesLegacyBitwise) {
  std::vector<float> legacy = predictor_->PredictBatch(areas_).gaps;
  PredictResult r =
      predictor_->PredictBatch(areas_, util::Deadline::Infinite());
  EXPECT_EQ(r.tier, FallbackTier::kNone);
  EXPECT_FALSE(r.deadline_expired);
  ASSERT_EQ(r.gaps.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(r.gaps[i], legacy[i]) << "area index " << i;
  }
}

TEST_F(ServingQueueTest, GenerousFiniteDeadlineMatchesLegacyBitwise) {
  // > 64 items spans several forward-pass sub-batches; the chunked path
  // must still be bit-identical to the single-call path.
  std::vector<int> many;
  for (int i = 0; i < 130; ++i) many.push_back(i % ds_.num_areas());
  std::vector<float> legacy = predictor_->PredictBatch(many).gaps;
  PredictResult r =
      predictor_->PredictBatch(many, util::Deadline::After(60'000'000));
  EXPECT_FALSE(r.deadline_expired);
  ASSERT_EQ(r.gaps.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(r.gaps[i], legacy[i]) << "item " << i;
  }
}

TEST_F(ServingQueueTest, ExpiredDeadlineStillAnswersEveryArea) {
  PredictResult r =
      predictor_->PredictBatch(areas_, util::Deadline::AtSteadyUs(1));
  EXPECT_TRUE(r.deadline_expired);
  EXPECT_EQ(r.tier, FallbackTier::kBaseline);
  ASSERT_EQ(r.gaps.size(), areas_.size());
  for (float g : r.gaps) EXPECT_TRUE(std::isfinite(g));
}

TEST_F(ServingQueueTest, PerCallResultSurvivesLaterCalls) {
  // Each call's PredictResult is its own value: a later call at another
  // tier must not retroactively change an earlier result (the failure mode
  // of the predictor-wide last-tier alias removed in favour of this API).
  PredictResult expired =
      predictor_->PredictBatch(areas_, util::Deadline::AtSteadyUs(1));
  EXPECT_EQ(expired.tier, FallbackTier::kBaseline);
  PredictResult fresh =
      predictor_->PredictBatch(areas_, util::Deadline::Infinite());
  EXPECT_EQ(fresh.tier, FallbackTier::kNone);
  EXPECT_EQ(expired.tier, FallbackTier::kBaseline);  // unchanged
}

TEST_F(ServingQueueTest, ConcurrentPredictBatchEachSeeOwnVerdict) {
  // Mixed expired/infinite deadlines from several threads: every call's
  // result must be internally consistent (expired => baseline tier), with
  // no shared per-predictor state for concurrent calls to stomp.
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &bad] {
      for (int i = 0; i < 25; ++i) {
        const bool expire = (i + t) % 2 == 0;
        PredictResult r = predictor_->PredictBatch(
            areas_, expire ? util::Deadline::AtSteadyUs(1)
                           : util::Deadline::Infinite());
        if (r.gaps.size() != areas_.size()) bad.fetch_add(1);
        if (expire &&
            (!r.deadline_expired || r.tier != FallbackTier::kBaseline)) {
          bad.fetch_add(1);
        }
        if (!expire && (r.deadline_expired || r.tier != FallbackTier::kNone)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// -------------------------------------------------------- queue admission

TEST_F(ServingQueueTest, AdmitsAndServesMatchingDirectCall) {
  ServingQueueConfig qc;
  qc.num_workers = 1;
  ServingQueue queue(predictor_.get(), qc);
  std::vector<float> direct = predictor_->PredictBatch(areas_).gaps;

  auto f = queue.Submit(areas_);
  ServingResponse r = f.get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kAdmitted);
  EXPECT_TRUE(r.admitted());
  EXPECT_FALSE(r.deadline_missed);
  EXPECT_EQ(r.result.tier, FallbackTier::kNone);
  ASSERT_EQ(r.result.gaps.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(r.result.gaps[i], direct[i]);
  }
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(s.offered, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.shed_total(), 0u);
}

TEST_F(ServingQueueTest, ExpiredDeadlineIsShedAtAdmission) {
  ServingQueueConfig qc;
  ServingQueue queue(predictor_.get(), qc);
  ServingResponse r =
      queue.Submit(areas_, util::Deadline::AtSteadyUs(1)).get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kShedDeadline);
  EXPECT_FALSE(r.admitted());
  EXPECT_TRUE(r.result.gaps.empty());
  EXPECT_EQ(queue.stats().shed_deadline, 1u);
}

TEST_F(ServingQueueTest, InfeasibleDeadlineIsShedOnceServiceTimeKnown) {
  ServingQueueConfig qc;
  ServingQueue queue(predictor_.get(), qc);
  // Warm the EWMA with unhurried requests...
  for (int i = 0; i < 3; ++i) queue.Submit(areas_).get();
  ASSERT_GT(queue.estimated_service_us(), 0.0);
  // ...then offer a deadline far below one service time. Feasibility math
  // (not expiry — it is still a few microseconds in the future at the
  // admission check) must reject it.
  ServingResponse r = queue.Submit(areas_, util::Deadline::After(1)).get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kShedDeadline);
}

TEST_F(ServingQueueTest, RateLimiterShedsWhenBucketEmpty) {
  util::RateLimiter limiter(0.001, 1.0);  // one token, essentially no refill
  ServingQueueConfig qc;
  qc.rate_limiter = &limiter;
  ServingQueue queue(predictor_.get(), qc);
  ServingResponse first = queue.Submit(areas_).get();
  EXPECT_EQ(first.verdict, AdmitVerdict::kAdmitted);
  ServingResponse second = queue.Submit(areas_).get();
  EXPECT_EQ(second.verdict, AdmitVerdict::kShedRateLimited);
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(s.offered, 2u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.shed_rate_limited, 1u);
}

TEST_F(ServingQueueTest, OpenBreakerShedsUpFront) {
  util::CircuitBreaker::Config bc;
  bc.failure_threshold = 1;
  bc.open_duration_us = 60'000'000;  // stays open for the whole test
  bc.name = "queue_test_breaker";
  util::CircuitBreaker breaker(bc);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), util::CircuitBreaker::State::kOpen);

  ServingQueueConfig qc;
  qc.breaker = &breaker;
  ServingQueue queue(predictor_.get(), qc);
  ServingResponse r = queue.Submit(areas_).get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kShedBreaker);
  EXPECT_EQ(queue.stats().shed_breaker, 1u);
}

TEST_F(ServingQueueTest, HealthyTrafficReclosesBreakerThroughQueue) {
  util::CircuitBreaker::Config bc;
  bc.failure_threshold = 1;
  bc.open_duration_us = 1;  // probes almost immediately
  bc.half_open_probes = 1;
  bc.name = "queue_reclose_breaker";
  util::CircuitBreaker breaker(bc);
  breaker.RecordFailure();

  ServingQueueConfig qc;
  qc.breaker = &breaker;
  ServingQueue queue(predictor_.get(), qc);
  // The open window (1us) has long elapsed: the next submit is admitted
  // as a half-open probe, succeeds (tier kNone, no deadline), and the
  // worker's RecordSuccess closes the breaker.
  ServingResponse r = queue.Submit(areas_).get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kAdmitted);
  queue.Drain();
  EXPECT_EQ(breaker.state(), util::CircuitBreaker::State::kClosed);
}

TEST_F(ServingQueueTest, BurstAgainstTinyQueueShedsButNeverLoses) {
  ServingQueueConfig qc;
  qc.capacity = 2;
  qc.num_workers = 1;
  ServingQueue queue(predictor_.get(), qc);
  constexpr int kBurst = 60;
  std::vector<std::future<ServingResponse>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) futures.push_back(queue.Submit(areas_));

  size_t admitted = 0, shed = 0;
  for (auto& f : futures) {
    ServingResponse r = f.get();  // every future must resolve
    if (r.admitted()) {
      ++admitted;
      ASSERT_EQ(r.result.gaps.size(), areas_.size());
    } else {
      EXPECT_EQ(r.verdict, AdmitVerdict::kShedQueueFull);
      ++shed;
    }
  }
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(admitted + shed, static_cast<size_t>(kBurst));
  EXPECT_EQ(s.offered, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(s.offered, s.admitted + s.shed_total());
  // A back-to-back burst of 60 against capacity 2 must shed; the exact
  // split depends on worker speed.
  EXPECT_GT(s.shed_queue_full, 0u);
  EXPECT_GT(s.admitted, 0u);
}

// ------------------------------------------------------------------ drain

TEST_F(ServingQueueTest, DrainCompletesEveryAcceptedRequest) {
  ServingQueueConfig qc;
  qc.capacity = 128;
  qc.num_workers = 2;
  ServingQueue queue(predictor_.get(), qc);
  std::vector<std::future<ServingResponse>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(queue.Submit(areas_));
  queue.Drain();
  // After Drain, every accepted future is already resolved.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ServingResponse r = f.get();
    EXPECT_TRUE(r.admitted());
  }
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(s.admitted, 40u);
  EXPECT_EQ(s.completed, 40u);
  EXPECT_EQ(s.shed_total(), 0u);
  EXPECT_TRUE(queue.draining());
}

TEST_F(ServingQueueTest, SubmitAfterDrainIsShedAsDraining) {
  ServingQueueConfig qc;
  ServingQueue queue(predictor_.get(), qc);
  queue.Submit(areas_).get();
  queue.Drain();
  ServingResponse r = queue.Submit(areas_).get();
  EXPECT_EQ(r.verdict, AdmitVerdict::kShedDraining);
  EXPECT_EQ(queue.stats().shed_draining, 1u);
}

TEST_F(ServingQueueTest, DrainIsIdempotent) {
  ServingQueueConfig qc;
  ServingQueue queue(predictor_.get(), qc);
  queue.Submit(areas_).get();
  queue.Drain();
  queue.Drain();  // second drain returns immediately
  EXPECT_TRUE(queue.draining());
}

TEST_F(ServingQueueTest, DestructorDrainsWithoutExplicitCall) {
  std::vector<std::future<ServingResponse>> futures;
  {
    ServingQueueConfig qc;
    qc.capacity = 64;
    ServingQueue queue(predictor_.get(), qc);
    for (int i = 0; i < 20; ++i) futures.push_back(queue.Submit(areas_));
  }  // destructor must resolve everything before the queue dies
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().admitted());
  }
}

TEST_F(ServingQueueTest, DrainWhileCallerStillHoldsUnresolvedFutures) {
  // Regression for the scatter-gather shutdown path: a sharded
  // PredictCity caller submits to several queues and then blocks in
  // future.get() while an operator drains the queue. Drain()'s contract —
  // return only once every accepted future is RESOLVED — must hold even
  // when it races callers who have not collected their futures yet, and
  // the promise must be fulfilled before in_flight_ is decremented (a
  // drain that returns between decrement and set_value would hand the
  // caller a future that hangs after "drain complete").
  ServingQueueConfig qc;
  qc.capacity = 128;
  qc.num_workers = 1;
  ServingQueue queue(predictor_.get(), qc);

  constexpr int kCallers = 3;
  constexpr int kPerCaller = 8;
  std::atomic<int> unresolved_after_drain{0};
  std::atomic<bool> drained{false};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([this, &queue, &drained, &unresolved_after_drain] {
      std::vector<std::future<ServingResponse>> futures;
      for (int i = 0; i < kPerCaller; ++i) {
        futures.push_back(queue.Submit(areas_));
      }
      // Hold the futures unresolved until the drain has started, then
      // collect — exactly what a gather loop racing shutdown does.
      while (!drained.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (auto& f : futures) {
        // Drain returned, so every admitted future must already be ready;
        // shed futures were ready at Submit.
        if (f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          unresolved_after_drain.fetch_add(1);
        }
        f.get();  // must never hang
      }
    });
  }

  queue.Drain();
  drained.store(true, std::memory_order_release);
  for (auto& th : callers) th.join();

  EXPECT_EQ(unresolved_after_drain.load(), 0);
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(s.offered, static_cast<uint64_t>(kCallers * kPerCaller));
  EXPECT_EQ(s.offered, s.admitted + s.shed_total());
  EXPECT_EQ(s.completed, s.admitted);
}

TEST_F(ServingQueueTest, WatchdogRunsQuietlyOnHealthyWorkers) {
  // With a tight threshold and ordinary (fast) requests the watchdog must
  // never flag anything — and shutdown with the watchdog thread live must
  // be clean.
  ServingQueueConfig qc;
  qc.watchdog_stuck_us = 50'000;
  ServingQueue queue(predictor_.get(), qc);
  for (int i = 0; i < 5; ++i) queue.Submit(areas_).get();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  queue.Drain();
}

TEST_F(ServingQueueTest, ConcurrentSubmittersNeverLoseAccounting) {
  ServingQueueConfig qc;
  qc.capacity = 8;
  qc.num_workers = 2;
  ServingQueue queue(predictor_.get(), qc);
  std::atomic<int> unresolved{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([this, &queue, &unresolved] {
      for (int i = 0; i < 25; ++i) {
        auto f = queue.Submit(areas_);
        if (f.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unresolved.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  queue.Drain();
  EXPECT_EQ(unresolved.load(), 0);
  ServingQueueStats s = queue.stats();
  EXPECT_EQ(s.offered, 100u);
  EXPECT_EQ(s.offered, s.admitted + s.shed_total());
  EXPECT_EQ(s.completed, s.admitted);
}

TEST_F(ServingQueueTest, VerdictNames) {
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kAdmitted),
               "admitted");
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kShedQueueFull),
               "shed_queue_full");
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kShedDeadline),
               "shed_deadline");
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kShedRateLimited),
               "shed_rate_limited");
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kShedBreaker),
               "shed_breaker");
  EXPECT_STREQ(ServingQueue::VerdictName(AdmitVerdict::kShedDraining),
               "shed_draining");
}

}  // namespace
}  // namespace serving
}  // namespace deepsd
