// VersionedModel (store/versioned_model.h) tests: atomic pointer-flip
// publication, the serving-compatibility gate, epoch-based reclamation
// (a retired version outlives every reader that could still see it, and
// no longer), the slot-overflow fallback, and a concurrent
// publisher-vs-readers hammer — the suite the TSAN CI leg runs to prove
// the epoch scheme race-free.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "nn/parameter.h"
#include "store/versioned_model.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace deepsd {
namespace store {
namespace {

/// In-memory ModelVersion for tests: a tiny real model (Publish validates
/// config compatibility through model().config()) plus a destruction flag
/// so reclamation timing is observable.
class FakeVersion : public ModelVersion {
 public:
  FakeVersion(const core::DeepSDConfig& config, std::string id,
              uint64_t seed = 1, std::atomic<int>* destroyed = nullptr)
      : id_(std::move(id)), destroyed_(destroyed) {
    util::Rng rng(seed);
    model_ = std::make_unique<core::DeepSDModel>(
        config, core::DeepSDModel::Mode::kBasic, &params_, &rng);
  }
  ~FakeVersion() override {
    if (destroyed_ != nullptr) destroyed_->fetch_add(1);
  }

  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return nullptr;
  }
  std::string version_id() const override { return id_; }

 private:
  std::string id_;
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

TEST(VersionedModelTest, EmptyUntilFirstPublish) {
  VersionedModel versions;
  EXPECT_FALSE(versions.has_version());
  VersionedModel::Ref ref = versions.Acquire();
  EXPECT_FALSE(static_cast<bool>(ref));
  EXPECT_EQ(versions.stats().current_sequence, 0u);
}

TEST(VersionedModelTest, PublishAssignsMonotonicSequences) {
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(TinyConfig(), "v1"))
                  .ok());
  {
    VersionedModel::Ref ref = versions.Acquire();
    ASSERT_TRUE(static_cast<bool>(ref));
    EXPECT_EQ(ref.sequence(), 1u);
    EXPECT_EQ(ref.version()->version_id(), "v1");
    EXPECT_EQ(ref.pinned().sequence, 1u);
    EXPECT_EQ(ref.pinned().version, ref.version());
  }
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(TinyConfig(), "v2"))
                  .ok());
  VersionedModel::Ref ref = versions.Acquire();
  EXPECT_EQ(ref.sequence(), 2u);
  EXPECT_EQ(ref.version()->version_id(), "v2");
}

TEST(VersionedModelTest, IncompatiblePublishIsRejectedWithoutFlipping) {
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(TinyConfig(), "v1"))
                  .ok());

  core::DeepSDConfig wrong = TinyConfig();
  wrong.num_areas = 3;
  util::Status st =
      versions.Publish(std::make_shared<FakeVersion>(wrong, "bad-areas"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);

  wrong = TinyConfig();
  wrong.use_weather = true;
  st = versions.Publish(std::make_shared<FakeVersion>(wrong, "bad-weather"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);

  st = versions.Publish(nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);

  // The serving version is untouched by the rejections.
  VersionedModel::Ref ref = versions.Acquire();
  EXPECT_EQ(ref.sequence(), 1u);
  EXPECT_EQ(ref.version()->version_id(), "v1");
  EXPECT_EQ(versions.stats().published, 1u);
}

TEST(VersionedModelTest, RetiredVersionOutlivesItsPinnedReaders) {
  std::atomic<int> destroyed{0};
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(
                      TinyConfig(), "v1", 1, &destroyed))
                  .ok());

  VersionedModel::Ref pinned = versions.Acquire();
  ASSERT_EQ(pinned.version()->version_id(), "v1");

  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(
                      TinyConfig(), "v2", 2, &destroyed))
                  .ok());
  // v1 is retired but the pinned reader can still dereference it.
  EXPECT_EQ(versions.stats().retired_live, 1u);
  EXPECT_EQ(versions.TryReclaim(), 0u);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(pinned.version()->version_id(), "v1");

  // Release → the next reclaim frees it, and only it.
  pinned.Reset();
  EXPECT_EQ(versions.TryReclaim(), 1u);
  EXPECT_EQ(destroyed.load(), 1);
  const VersionedModel::Stats stats = versions.stats();
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_EQ(stats.current_sequence, 2u);
}

TEST(VersionedModelTest, LateReaderNeverPinsARetiredVersion) {
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(TinyConfig(), "v1"))
                  .ok());
  VersionedModel::Ref old_ref = versions.Acquire();
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(TinyConfig(), "v2"))
                  .ok());
  // A reader arriving after the flip sees only the new version, even
  // while a straggler still pins the old one.
  VersionedModel::Ref new_ref = versions.Acquire();
  EXPECT_EQ(new_ref.version()->version_id(), "v2");
  EXPECT_EQ(old_ref.version()->version_id(), "v1");
}

TEST(VersionedModelTest, SlotOverflowFallsBackCorrectly) {
  std::atomic<int> destroyed{0};
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(
                      TinyConfig(), "v1", 1, &destroyed))
                  .ok());

  // More simultaneous pins than reader slots: the overflow Refs must be
  // served via the shared_ptr fallback, all valid, all on v1.
  std::vector<VersionedModel::Ref> refs;
  refs.reserve(VersionedModel::kReaderSlots + 8);
  for (size_t i = 0; i < VersionedModel::kReaderSlots + 8; ++i) {
    refs.push_back(versions.Acquire());
    ASSERT_TRUE(static_cast<bool>(refs.back())) << i;
    EXPECT_EQ(refs.back().sequence(), 1u);
  }
  EXPECT_GE(versions.stats().slot_overflows, 8u);

  // Retiring v1 while fallback pins exist must not free it...
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(
                      TinyConfig(), "v2", 2, &destroyed))
                  .ok());
  for (const VersionedModel::Ref& ref : refs) {
    EXPECT_EQ(ref.version()->version_id(), "v1");
  }
  EXPECT_EQ(destroyed.load(), 0);

  // ...and releasing every pin lets reclamation free exactly v1.
  refs.clear();
  versions.TryReclaim();
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(versions.stats().retired_live, 0u);
}

TEST(VersionedModelTest, ConcurrentPublishAndAcquireStaysCoherent) {
  const int kPublishes = 200;
  const int kReaders = 4;
  std::atomic<int> destroyed{0};
  VersionedModel versions;
  ASSERT_TRUE(versions
                  .Publish(std::make_shared<FakeVersion>(
                      TinyConfig(), "v1", 1, &destroyed))
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acquired{0}, torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        VersionedModel::Ref ref = versions.Acquire();
        if (!ref) continue;
        acquired.fetch_add(1, std::memory_order_relaxed);
        // Sequence parity names the version: publishes alternate v1
        // (odd) / v2 (even). A mismatch means the pin and the pointer
        // were not taken atomically — a torn acquire.
        const std::string want =
            (ref.sequence() % 2 == 1) ? "v1" : "v2";
        if (ref.version()->version_id() != want) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 2; i <= kPublishes; ++i) {
    ASSERT_TRUE(versions
                    .Publish(std::make_shared<FakeVersion>(
                        TinyConfig(), i % 2 == 1 ? "v1" : "v2",
                        static_cast<uint64_t>(i), &destroyed))
                    .ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  versions.TryReclaim();

  EXPECT_GT(acquired.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  const VersionedModel::Stats stats = versions.stats();
  EXPECT_EQ(stats.published, static_cast<uint64_t>(kPublishes));
  EXPECT_EQ(stats.current_sequence, static_cast<uint64_t>(kPublishes));
  // Every retired version is reclaimable once the readers are gone: all
  // but the current one destroyed, none leaked.
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_EQ(destroyed.load(), kPublishes - 1);
}

}  // namespace
}  // namespace store
}  // namespace deepsd
