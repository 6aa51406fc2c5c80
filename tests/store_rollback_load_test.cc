// Rollback-under-load: the continuous-learning incident path — publish a
// candidate, detect a regression, re-publish the prior version — exercised
// while reader threads continuously pin versions. Proves the two halves of
// the rollback contract: no reader ever observes a torn version (the id it
// pinned answers consistently for the whole pin), and the retired
// regressed candidate is reclaimed once its last reader releases.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "nn/parameter.h"
#include "store/versioned_model.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "gtest/gtest.h"

namespace deepsd {
namespace store {
namespace {

/// ModelVersion whose id and payload must always agree — a torn read
/// (pointer from one version, state from another) trips the EXPECT.
class StampedVersion : public ModelVersion {
 public:
  StampedVersion(const core::DeepSDConfig& config, int stamp,
                 std::atomic<int>* destroyed)
      : stamp_(stamp), destroyed_(destroyed) {
    util::Rng rng(7);
    model_ = std::make_unique<core::DeepSDModel>(
        config, core::DeepSDModel::Mode::kBasic, &params_, &rng);
  }
  ~StampedVersion() override { destroyed_->fetch_add(1); }

  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return nullptr;
  }
  std::string version_id() const override {
    return util::StrFormat("v%d", stamp_);
  }
  int stamp() const { return stamp_; }

 private:
  int stamp_;
  std::atomic<int>* destroyed_;
  nn::ParameterStore params_;
  std::unique_ptr<core::DeepSDModel> model_;
};

core::DeepSDConfig TinyConfig() {
  core::DeepSDConfig config;
  config.num_areas = 2;
  config.use_weather = false;
  config.use_traffic = false;
  return config;
}

TEST(RollbackUnderLoadTest, FourReadersSeeNoTornVersionAndCandidateReclaims) {
  VersionedModel versions;
  std::atomic<int> destroyed{0};

  auto stable = std::make_shared<StampedVersion>(TinyConfig(), 1, &destroyed);
  ASSERT_TRUE(versions.Publish(stable).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        VersionedModel::Ref ref = versions.Acquire();
        ASSERT_TRUE(static_cast<bool>(ref));
        const auto* v = static_cast<const StampedVersion*>(ref.version());
        // Read id and stamp twice across a model() touch: all four reads
        // must name the same version or the pin is torn.
        const int s1 = v->stamp();
        const std::string id = v->version_id();
        (void)v->model().config().num_areas;
        const int s2 = v->stamp();
        if (s1 != s2 || id != util::StrFormat("v%d", s1)) {
          torn.fetch_add(1);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The incident loop: promote a candidate, then roll back to the prior
  // version (mechanically a re-publish), many times under full read load.
  constexpr int kIncidents = 200;
  for (int i = 0; i < kIncidents; ++i) {
    auto candidate = std::make_shared<StampedVersion>(
        TinyConfig(), 1000 + i, &destroyed);
    ASSERT_TRUE(versions.Publish(candidate).ok());   // promotion
    candidate.reset();  // learner drops its handle; readers may still pin
    ASSERT_TRUE(versions.Publish(stable).ok());      // rollback
  }

  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0u);

  // With every reader released, every retired candidate must reclaim; only
  // the stable version (current) survives.
  versions.TryReclaim();
  EXPECT_EQ(destroyed.load(), kIncidents);
  VersionedModel::Stats stats = versions.stats();
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_EQ(stats.published, static_cast<uint64_t>(1 + 2 * kIncidents));
  {
    VersionedModel::Ref ref = versions.Acquire();
    EXPECT_EQ(ref.version()->version_id(), "v1");
  }
}

TEST(RollbackUnderLoadTest, ReaderPinOutlivesRollback) {
  // A reader that pinned the regressed candidate keeps a valid version for
  // the whole request even though the rollback retired it mid-flight.
  VersionedModel versions;
  std::atomic<int> destroyed{0};
  auto prior = std::make_shared<StampedVersion>(TinyConfig(), 1, &destroyed);
  ASSERT_TRUE(versions.Publish(prior).ok());
  auto candidate = std::make_shared<StampedVersion>(TinyConfig(), 2, &destroyed);
  ASSERT_TRUE(versions.Publish(candidate).ok());
  candidate.reset();

  VersionedModel::Ref pinned = versions.Acquire();
  ASSERT_EQ(pinned.version()->version_id(), "v2");

  ASSERT_TRUE(versions.Publish(prior).ok());  // rollback while pinned
  versions.TryReclaim();
  EXPECT_EQ(destroyed.load(), 0);  // candidate still pinned: not reclaimed
  EXPECT_EQ(pinned.version()->version_id(), "v2");  // pin still answers

  pinned.Reset();
  versions.TryReclaim();
  EXPECT_EQ(destroyed.load(), 1);  // now it reclaims
  VersionedModel::Ref current = versions.Acquire();
  EXPECT_EQ(current.version()->version_id(), "v1");
}

}  // namespace
}  // namespace store
}  // namespace deepsd
