#ifndef DEEPSD_STORE_VERSIONED_MODEL_H_
#define DEEPSD_STORE_VERSIONED_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/model.h"
#include "util/status.h"

namespace deepsd {
namespace store {

/// One publishable model version — everything a serving request resolves
/// against. Implemented by StoredModel (an mmap'd artifact), by
/// BorrowedVersion (an in-memory model) and by test fakes. Implementations
/// are immutable once published; all methods must be thread-safe (they are
/// called from every serving thread concurrently).
class ModelVersion {
 public:
  virtual ~ModelVersion() = default;
  virtual const core::DeepSDModel& model() const = 0;
  /// The tier-3 baseline packaged with this version; nullptr when the
  /// version ships without one (the predictor then falls back to its
  /// statically attached baseline, or the empirical block).
  virtual const baselines::EmpiricalAverage* baseline() const = 0;
  /// Human-readable version tag (artifact manifest version_id).
  virtual std::string version_id() const = 0;
};

/// A ModelVersion over an in-memory model it borrows, with no packaged
/// baseline — how a model that never went through the store is served.
/// `model` must outlive the version.
class BorrowedVersion : public ModelVersion {
 public:
  explicit BorrowedVersion(const core::DeepSDModel* model);
  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return nullptr;
  }
  std::string version_id() const override { return "in-memory"; }

 private:
  const core::DeepSDModel* model_;
};

/// A pinned (version, publish-sequence) pair, passed by value through the
/// serving queue so every shard of one scatter-gather call resolves
/// against the same version. POD-cheap; validity is guaranteed by the
/// VersionedModel::Ref the coordinating caller holds for the call's
/// lifetime.
struct PinnedModel {
  const ModelVersion* version = nullptr;
  uint64_t sequence = 0;
};

/// Atomic pointer-flip publication of model versions with epoch-based
/// reclamation — the hot-swap core of the model store (docs/model_store.md).
///
/// Readers call Acquire() at request entry; the returned Ref pins the
/// current version for the request's lifetime (two atomic stores on the
/// fast path, no locks). Publish() swaps the current pointer and *retires*
/// the old version; a retired version is destroyed — and its mapping
/// unmapped — only once no reader that could have seen it is still pinned.
/// The guarantee is exactly the swap contract serving needs:
///
///   * a request sees entirely old or entirely new, never a mix
///     (linearizable per request: one Acquire per request);
///   * no request is ever dropped or blocked by a swap (publish never
///     takes a lock a reader holds);
///   * old mappings are reclaimed promptly once the last straggler
///     releases (bounded memory across arbitrarily many swaps).
///
/// Epoch scheme: a global epoch counter and a fixed array of per-reader
/// slots. Acquire claims a free slot, stamps it with the current epoch
/// (re-validating the stamp against the epoch so a concurrent publish
/// cannot slip between the read and the stamp), then loads the current
/// version. Publish retires the old version at the current epoch and then
/// bumps the epoch; a retired version is freed when the minimum stamped
/// epoch across all claimed slots exceeds its retirement epoch. When all
/// slots are busy (more concurrent requests than slots), Acquire falls
/// back to a mutex-guarded shared_ptr copy — correct at any concurrency,
/// merely slower — and counts the overflow.
class VersionedModel {
 public:
  static constexpr size_t kReaderSlots = 64;

  VersionedModel();
  /// Publishes `initial` as sequence 1 (CHECKs it is non-null).
  explicit VersionedModel(std::shared_ptr<const ModelVersion> initial);
  /// CHECKs that no reader is still pinned (destroying the publisher under
  /// live readers would unmap memory they may dereference).
  ~VersionedModel();

  VersionedModel(const VersionedModel&) = delete;
  VersionedModel& operator=(const VersionedModel&) = delete;

  /// Publishes `version` as current. The first publish always succeeds;
  /// every later one is validated for serving compatibility against the
  /// current version (same window, area count, mode, and input-block
  /// flags) and returns InvalidArgument — without publishing — on
  /// mismatch, because swapping in a model that disagrees with the live
  /// feature assembler would serve garbage, not a new version.
  util::Status Publish(std::shared_ptr<const ModelVersion> version);

  bool has_version() const {
    return current_.load(std::memory_order_acquire) != nullptr;
  }

  /// RAII pin on one model version. Movable, not copyable; empty Refs
  /// (default-constructed or moved-from) are inert.
  class Ref {
   public:
    Ref() = default;
    ~Ref() { Reset(); }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    Ref(Ref&& other) noexcept { *this = std::move(other); }
    Ref& operator=(Ref&& other) noexcept;

    explicit operator bool() const { return version_ != nullptr; }
    const ModelVersion* version() const { return version_; }
    uint64_t sequence() const { return sequence_; }
    PinnedModel pinned() const { return {version_, sequence_}; }

    void Reset();

   private:
    friend class VersionedModel;
    const VersionedModel* owner_ = nullptr;
    const ModelVersion* version_ = nullptr;
    uint64_t sequence_ = 0;
    int slot_ = -1;  ///< -1 when the pin is the shared_ptr fallback.
    std::shared_ptr<const ModelVersion> fallback_;
  };

  /// Pins and returns the current version. The Ref is empty when nothing
  /// has been published yet.
  Ref Acquire() const;

  /// Frees every retired version no pinned reader can still observe.
  /// Publish calls this automatically; exposed so tests and benchmarks
  /// can quiesce deterministically. Returns the number freed.
  size_t TryReclaim();

  struct Stats {
    uint64_t published = 0;       ///< Successful Publish calls.
    uint64_t reclaimed = 0;       ///< Retired versions destroyed so far.
    uint64_t retired_live = 0;    ///< Retired but still awaiting readers.
    uint64_t current_sequence = 0;
    uint64_t slot_overflows = 0;  ///< Acquires served via the fallback.
  };
  Stats stats() const;

 private:
  struct Node {
    std::shared_ptr<const ModelVersion> version;
    uint64_t sequence = 0;
    uint64_t retire_epoch = 0;
  };

  struct alignas(64) Slot {
    /// 0 = free; otherwise the epoch the reader pinned at.
    std::atomic<uint64_t> epoch{0};
  };

  void ReleaseSlot(int slot) const {
    slots_[static_cast<size_t>(slot)].epoch.store(0,
                                                  std::memory_order_release);
  }
  /// Minimum pinned epoch across claimed slots (UINT64_MAX when none).
  uint64_t MinPinnedEpoch() const;
  size_t ReclaimLocked();

  std::atomic<Node*> current_{nullptr};
  std::atomic<uint64_t> epoch_{1};
  mutable std::array<Slot, kReaderSlots> slots_;

  mutable std::mutex mu_;  ///< Guards retired_, publish, and the fallback.
  std::vector<Node*> retired_;
  uint64_t published_ = 0;
  uint64_t reclaimed_ = 0;
  mutable std::atomic<uint64_t> slot_overflows_{0};
};

}  // namespace store
}  // namespace deepsd

#endif  // DEEPSD_STORE_VERSIONED_MODEL_H_
