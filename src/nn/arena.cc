#include "nn/arena.h"

#include <algorithm>
#include <utility>

namespace deepsd {
namespace nn {

Tensor TensorArena::Acquire(int rows, int cols, bool zeroed) {
  const size_t elements =
      static_cast<size_t>(rows) * static_cast<size_t>(cols);
  auto it = pool_.find(elements);
  if (it != pool_.end() && !it->second.empty()) {
    std::vector<float> storage = std::move(it->second.back());
    it->second.pop_back();
    ++hits_;
    if (zeroed) std::fill(storage.begin(), storage.end(), 0.0f);
    return Tensor(rows, cols, std::move(storage));
  }
  ++misses_;
  return Tensor(rows, cols);
}

void TensorArena::Release(Tensor&& t) {
  // A view borrows its floats from storage the arena does not own.
  if (t.size() == 0 || t.is_view()) return;
  std::vector<float> storage = t.ReleaseStorage();
  pool_[storage.size()].push_back(std::move(storage));
}

void TensorArena::Clear() {
  pool_.clear();
  hits_ = 0;
  misses_ = 0;
}

size_t TensorArena::pooled_buffers() const {
  size_t n = 0;
  for (const auto& kv : pool_) n += kv.second.size();
  return n;
}

}  // namespace nn
}  // namespace deepsd
