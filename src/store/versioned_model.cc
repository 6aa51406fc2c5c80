#include "store/versioned_model.h"

#include <cstdint>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace deepsd {
namespace store {

namespace {

/// Spreads concurrent readers across the slot array so they don't all
/// CAS-contend on slot 0. Nested pins on one thread (e.g. CurrentTier
/// inside a pinned request) probe forward from the preferred slot.
size_t PreferredSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t preferred =
      next.fetch_add(1, std::memory_order_relaxed) %
      VersionedModel::kReaderSlots;
  return preferred;
}

}  // namespace

BorrowedVersion::BorrowedVersion(const core::DeepSDModel* model)
    : model_(model) {
  DEEPSD_CHECK(model != nullptr);
}

VersionedModel::VersionedModel() = default;

VersionedModel::VersionedModel(std::shared_ptr<const ModelVersion> initial) {
  const util::Status st = Publish(std::move(initial));
  DEEPSD_CHECK_MSG(st.ok(), st.ToString().c_str());
}

VersionedModel::~VersionedModel() {
  DEEPSD_CHECK_MSG(
      MinPinnedEpoch() == std::numeric_limits<uint64_t>::max(),
      "destroying a VersionedModel while readers are still pinned — their "
      "model versions would be freed out from under them");
  std::lock_guard<std::mutex> lock(mu_);
  for (Node* node : retired_) delete node;
  retired_.clear();
  delete current_.load(std::memory_order_acquire);
}

util::Status VersionedModel::Publish(
    std::shared_ptr<const ModelVersion> version) {
  if (version == nullptr) {
    return util::Status::InvalidArgument("cannot publish a null version");
  }
  std::lock_guard<std::mutex> lock(mu_);
  Node* old = current_.load(std::memory_order_acquire);
  if (old != nullptr) {
    // Serving compatibility gate: the live feature assembler and stream
    // buffers were sized for the current version's shape; an incompatible
    // swap must be a typed rejection, not a corrupted request.
    const core::DeepSDConfig& have = old->version->model().config();
    const core::DeepSDConfig& next = version->model().config();
    const auto mismatch = [&](const char* what) {
      return util::Status::InvalidArgument(util::StrFormat(
          "cannot swap to version '%s': %s differs from the serving "
          "version's",
          version->version_id().c_str(), what));
    };
    if (next.window != have.window) return mismatch("window");
    if (next.num_areas != have.num_areas) return mismatch("num_areas");
    if (version->model().mode() != old->version->model().mode()) {
      return mismatch("model mode");
    }
    if (next.use_weather != have.use_weather) return mismatch("use_weather");
    if (next.use_traffic != have.use_traffic) return mismatch("use_traffic");
    if (next.use_last_call != have.use_last_call) {
      return mismatch("use_last_call");
    }
    if (next.use_waiting_time != have.use_waiting_time) {
      return mismatch("use_waiting_time");
    }
  }

  Node* node = new Node();
  node->version = std::move(version);
  node->sequence = ++published_;
  current_.store(node, std::memory_order_seq_cst);
  if (old != nullptr) {
    // Retire at the pre-bump epoch: any reader that could still hold the
    // old node is stamped at or below it, and the bump makes every later
    // pin distinguishable.
    old->retire_epoch = epoch_.load(std::memory_order_seq_cst);
    retired_.push_back(old);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  ReclaimLocked();
  return util::Status::OK();
}

VersionedModel::Ref& VersionedModel::Ref::operator=(Ref&& other) noexcept {
  if (this != &other) {
    Reset();
    owner_ = other.owner_;
    version_ = other.version_;
    sequence_ = other.sequence_;
    slot_ = other.slot_;
    fallback_ = std::move(other.fallback_);
    other.owner_ = nullptr;
    other.version_ = nullptr;
    other.sequence_ = 0;
    other.slot_ = -1;
  }
  return *this;
}

void VersionedModel::Ref::Reset() {
  if (owner_ != nullptr && slot_ >= 0) {
    owner_->ReleaseSlot(slot_);
  }
  owner_ = nullptr;
  version_ = nullptr;
  sequence_ = 0;
  slot_ = -1;
  fallback_.reset();
}

VersionedModel::Ref VersionedModel::Acquire() const {
  Ref ref;
  if (current_.load(std::memory_order_acquire) == nullptr) return ref;

  // Claim a free slot, probing forward from this thread's preferred one.
  const size_t start = PreferredSlot();
  int slot = -1;
  uint64_t e = epoch_.load(std::memory_order_seq_cst);
  for (size_t i = 0; i < kReaderSlots; ++i) {
    Slot& s = slots_[(start + i) % kReaderSlots];
    uint64_t expected = 0;
    if (s.epoch.compare_exchange_strong(expected, e,
                                        std::memory_order_seq_cst)) {
      slot = static_cast<int>((start + i) % kReaderSlots);
      break;
    }
  }

  if (slot < 0) {
    // Every slot busy: fall back to a plain shared_ptr copy under the
    // publish lock — unbounded concurrency, just slower than the
    // lock-free path.
    slot_overflows_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    Node* node = current_.load(std::memory_order_acquire);
    if (node == nullptr) return ref;
    ref.owner_ = this;
    ref.version_ = node->version.get();
    ref.sequence_ = node->sequence;
    ref.fallback_ = node->version;
    return ref;
  }

  // Stamp-validate loop: the stamp must be in place *before* the version
  // pointer is read, and the epoch must not have moved in between —
  // otherwise a concurrent publish could retire (and reclaim) the node
  // between our load and our stamp.
  Node* node = nullptr;
  while (true) {
    node = current_.load(std::memory_order_seq_cst);
    const uint64_t now = epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
    slots_[static_cast<size_t>(slot)].epoch.store(e,
                                                  std::memory_order_seq_cst);
  }
  if (node == nullptr) {
    ReleaseSlot(slot);
    return ref;
  }
  ref.owner_ = this;
  ref.version_ = node->version.get();
  ref.sequence_ = node->sequence;
  ref.slot_ = slot;
  return ref;
}

uint64_t VersionedModel::MinPinnedEpoch() const {
  uint64_t min_epoch = std::numeric_limits<uint64_t>::max();
  for (const Slot& s : slots_) {
    const uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min_epoch) min_epoch = e;
  }
  return min_epoch;
}

size_t VersionedModel::ReclaimLocked() {
  const uint64_t min_pinned = MinPinnedEpoch();
  size_t freed = 0;
  size_t kept = 0;
  for (Node* node : retired_) {
    // A retired node is observable only by readers stamped at or below
    // its retirement epoch; once the minimum pinned stamp is past it, no
    // reader can still hold it. The fallback path needs no epoch: its
    // Refs co-own the version via shared_ptr, so deleting the node then
    // is safe regardless.
    if (min_pinned > node->retire_epoch) {
      delete node;
      ++freed;
    } else {
      retired_[kept++] = node;
    }
  }
  retired_.resize(kept);
  reclaimed_ += freed;
  return freed;
}

size_t VersionedModel::TryReclaim() {
  std::lock_guard<std::mutex> lock(mu_);
  return ReclaimLocked();
}

VersionedModel::Stats VersionedModel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.published = published_;
  stats.reclaimed = reclaimed_;
  stats.retired_live = retired_.size();
  Node* node = current_.load(std::memory_order_acquire);
  stats.current_sequence = node != nullptr ? node->sequence : 0;
  stats.slot_overflows = slot_overflows_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace store
}  // namespace deepsd
