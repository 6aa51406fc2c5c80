#ifndef DEEPSD_NN_ARENA_H_
#define DEEPSD_NN_ARENA_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nn/tensor.h"

namespace deepsd {
namespace nn {

/// Size-keyed recycling pool for Tensor storage. A graph replaying the
/// same topology every step acquires tensors of the same handful of
/// shapes; after warm-up every Acquire is served from the pool and the
/// steady-state allocation count per step drops to zero.
///
/// Acquired tensors are zero-filled by default, so values computed into
/// arena-backed storage are independent of what previously occupied the
/// buffer — recycling cannot change results, which keeps the determinism
/// contract (docs/performance.md) intact.
///
/// Not thread-safe: each Graph owns one arena, and a graph is only ever
/// used by one thread at a time (the trainer keeps one graph per shard
/// slot, serving uses a thread_local graph).
class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;
  TensorArena(TensorArena&&) = default;
  TensorArena& operator=(TensorArena&&) = default;

  /// Returns a rows×cols tensor, reusing pooled storage of the same
  /// element count when available. `zeroed` controls whether recycled
  /// storage is cleared; pass false only when every element will be
  /// overwritten before being read.
  Tensor Acquire(int rows, int cols, bool zeroed = true);

  /// Returns the tensor's storage to the pool. Empty tensors and views
  /// (which own no storage) are ignored.
  void Release(Tensor&& t);

  /// Drops all pooled buffers (frees memory).
  void Clear();

  /// Acquires served from the pool / by allocating fresh storage.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

  /// Buffers currently sitting in the pool.
  size_t pooled_buffers() const;

 private:
  // Keyed by element count, not shape: a released [4,16] buffer can back a
  // [64,1] tensor. Values are stacks of ready-to-adopt storage vectors.
  std::unordered_map<size_t, std::vector<std::vector<float>>> pool_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace nn
}  // namespace deepsd

#endif  // DEEPSD_NN_ARENA_H_
