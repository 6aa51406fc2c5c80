#ifndef DEEPSD_NN_TENSOR_H_
#define DEEPSD_NN_TENSOR_H_

#include <vector>

#include "util/logging.h"

namespace deepsd {
namespace nn {

/// Dense row-major 2-D float tensor. Everything in the network is a matrix
/// of shape [batch, features] or a parameter matrix, so 2-D is the whole
/// story; 1-D data is represented as a single row.
///
/// A tensor either owns its storage (the default) or is a read-only *view*
/// over memory owned elsewhere (Tensor::View) — the model store aliases
/// parameter matrices straight into a file mapping this way, so N serving
/// replicas share one resident copy. Views support every const accessor;
/// the mutating accessors (non-const data()/at()/row()/flat(), Fill, ...)
/// CHECK-fail on a view, because writing through one would scribble on a
/// read-only mapping.
class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols) : rows_(rows), cols_(cols) {
    DEEPSD_CHECK(rows >= 0 && cols >= 0);
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }

  /// Adopts `storage` as the backing buffer (no allocation). The buffer
  /// must already hold exactly rows*cols elements; used by TensorArena to
  /// recycle storage across graph replays.
  Tensor(int rows, int cols, std::vector<float>&& storage)
      : rows_(rows), cols_(cols), data_(std::move(storage)) {
    DEEPSD_CHECK(rows >= 0 && cols >= 0);
    DEEPSD_CHECK(data_.size() ==
                 static_cast<size_t>(rows) * static_cast<size_t>(cols));
  }

  /// Single row from a vector.
  static Tensor Row(const std::vector<float>& values) {
    Tensor t(1, static_cast<int>(values.size()));
    t.data_ = values;
    return t;
  }

  /// Read-only view over `data` (rows*cols floats owned elsewhere, which
  /// must outlive every copy of the view). Copying a view copies the
  /// pointer, not the floats.
  static Tensor View(const float* data, int rows, int cols) {
    DEEPSD_CHECK(rows >= 0 && cols >= 0);
    DEEPSD_CHECK(data != nullptr || rows * cols == 0);
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.view_ = data;
    return t;
  }

  bool is_view() const { return view_ != nullptr; }

  /// Moves the backing buffer out, leaving an empty 0x0 tensor. The
  /// arena uses this to reclaim storage when a graph is cleared.
  std::vector<float> ReleaseStorage() {
    DEEPSD_CHECK_MSG(view_ == nullptr, "cannot release a view's storage");
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const {
    return view_ != nullptr
               ? static_cast<size_t>(rows_) * static_cast<size_t>(cols_)
               : data_.size();
  }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& at(int r, int c) {
    return mutable_storage()[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    return data()[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return mutable_storage(); }
  const float* data() const {
    return view_ != nullptr ? view_ : data_.data();
  }
  float* row(int r) {
    return mutable_storage() + static_cast<size_t>(r) * cols_;
  }
  const float* row(int r) const {
    return data() + static_cast<size_t>(r) * cols_;
  }

  void Fill(float v) {
    DEEPSD_CHECK_MSG(view_ == nullptr, "cannot write through a tensor view");
    std::fill(data_.begin(), data_.end(), v);
  }
  void Zero() { Fill(0.0f); }

  /// Frobenius-norm squared; used by gradient tests and optimizer metrics.
  double SquaredNorm() const;

  const std::vector<float>& flat() const {
    DEEPSD_CHECK_MSG(view_ == nullptr,
                     "a tensor view has no vector storage; use data()");
    return data_;
  }
  std::vector<float>& flat() {
    DEEPSD_CHECK_MSG(view_ == nullptr,
                     "a tensor view has no vector storage; use data()");
    return data_;
  }

 private:
  float* mutable_storage() {
    DEEPSD_CHECK_MSG(view_ == nullptr, "cannot write through a tensor view");
    return data_.data();
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
  /// Non-null iff this tensor is a borrowed read-only view.
  const float* view_ = nullptr;
};

/// out = a * b for a:[m,k], b:[k,n]; accumulates into `out` when
/// `accumulate` is true, otherwise overwrites. Dispatches to the kernel
/// layer (nn/kernels.h); blocked and naive modes are bitwise identical.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out,
            bool accumulate = false);

/// out += a^T * b for a:[m,k], b:[m,n] -> out:[k,n]. (Weight gradients.)
void MatMulTransposeA(const Tensor& a, const Tensor& b, Tensor* out);

/// out += a * b^T for a:[m,k], b:[n,k] -> out:[m,n]. (Input gradients.)
void MatMulTransposeB(const Tensor& a, const Tensor& b, Tensor* out);

}  // namespace nn
}  // namespace deepsd

#endif  // DEEPSD_NN_TENSOR_H_
