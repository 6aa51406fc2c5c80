#ifndef DEEPSD_NN_PARAMETER_H_
#define DEEPSD_NN_PARAMETER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/kernels.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepsd {
namespace nn {

/// A trainable weight matrix with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Frozen parameters are skipped by the optimizer (used to study
  /// fine-tuning, paper Sec V-C / Fig 16).
  bool frozen = false;
  /// EWMA'd absmax of the activations multiplied against this weight,
  /// captured by the trainer's calibration pass (core/trainer.cc) and
  /// stored with the values in checkpoints and model artifacts. 0 means
  /// "uncalibrated": the quant kernels then fall back to per-row dynamic
  /// ranges.
  float act_absmax = 0.0f;

  /// Monotonic value-mutation tag. Every code path that rewrites `value`
  /// (optimizer steps, CopyFrom, AverageFrom, InstallValue, the trainer's
  /// apply-checkpoint) bumps it, which is what invalidates the cached
  /// int8 weights below — fine-tuning a loaded model can never serve
  /// stale quantized weights.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  /// The int8 form of `value` for KernelMode::kQuant, quantized lazily
  /// once per version and cached. Thread-safe against concurrent readers
  /// (double-checked under a mutex); concurrent mutation of `value` while
  /// serving is outside the contract, exactly as for the fp32 path.
  const kernels::QuantizedWeights& Quantized() const;

  /// Installs a ready-made quantized form for the *current* version —
  /// used by store::StoredModel when it binds an int8 artifact tensor, so
  /// replicas serve the exact int8 weights that were packed, with no
  /// requantization round-trip.
  void InstallQuantized(kernels::QuantizedWeights qw);

  /// Replaces `value` (and the int8 calibration) under the version
  /// discipline every other value-mutation path follows. The model store
  /// binds artifact tensors — including read-only Tensor::View aliases
  /// into the file mapping — through this, so a stale quant cache can
  /// never survive a rebind.
  void InstallValue(Tensor new_value, float new_act_absmax) {
    value = std::move(new_value);
    act_absmax = new_act_absmax;
    BumpVersion();
  }

 private:
  std::atomic<uint64_t> version_{1};
  mutable std::mutex quant_mu_;
  mutable std::atomic<uint64_t> quant_version_{0};  // 0 = never filled
  mutable kernels::QuantizedWeights quant_;
};

/// A tensor addressed by parameter name — the serialization-friendly form
/// used by optimizer state export and trainer checkpoints, where raw
/// Parameter pointers cannot survive a process restart.
struct NamedTensor {
  std::string name;
  Tensor value;
};

/// Weight initialization schemes.
enum class Init {
  kZero,
  kGlorotUniform,  ///< U(±sqrt(6/(fan_in+fan_out))) — FC weights.
  kHeUniform,      ///< U(±sqrt(6/fan_in)) — relu-family layers.
  kEmbedding,      ///< U(±0.05), standard small-range embedding init.
};

/// Owns all parameters of a model. Parameters are created once (layer
/// constructors) and referenced by raw pointer thereafter; the store is the
/// unit of optimization, serialization and parameter counting.
class ParameterStore {
 public:
  /// Creates (or returns, when a parameter of this name and shape already
  /// exists) a parameter. Re-use by name is what makes fine-tuning work: a
  /// rebuilt model picks up previously trained weights from the same store.
  Parameter* Create(const std::string& name, int rows, int cols, Init init,
                    util::Rng* rng);

  /// Looks up by name; nullptr if absent.
  Parameter* Find(const std::string& name);
  const Parameter* Find(const std::string& name) const;

  const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return params_;
  }
  std::vector<std::unique_ptr<Parameter>>& parameters() { return params_; }

  /// Total number of scalar weights.
  size_t NumWeights() const;

  /// Zeroes every gradient (call before each batch).
  void ZeroGrads();

  /// Marks parameters whose name starts with `prefix` as frozen/unfrozen.
  void SetFrozen(const std::string& prefix, bool frozen);

  /// Deep copy of all values from `other` for parameters with matching
  /// name and shape. Returns the number copied.
  int CopyFrom(const ParameterStore& other);

  /// Element-wise average of the values of `stores` into this store
  /// (all must have identical structure). Implements the paper's
  /// "average of the models in the best 10 epochs".
  void AverageFrom(const std::vector<const ParameterStore*>& stores);

  /// Clone with identical names/shapes/values (fresh gradients).
  std::unique_ptr<ParameterStore> Clone() const;

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

/// Fills `t` in place according to `init`.
void InitTensor(Tensor* t, Init init, util::Rng* rng);

/// Shard-local gradient accumulator for data-parallel training.
///
/// Holds one zero-initialized tensor per parameter of a store, aligned
/// with store->parameters() order. A Graph pointed at a GradBuffer (see
/// Graph::set_grad_buffer) accumulates parameter gradients here instead of
/// Parameter::grad, so concurrent backward passes never touch shared
/// state; the trainer then reduces the per-shard buffers in a fixed tree
/// order and writes the result into the store (docs/parallelism.md).
///
/// Buffers are reused across batches: Zero() each shard's buffer at the
/// start of its task rather than reallocating.
class GradBuffer {
 public:
  explicit GradBuffer(const ParameterStore& store);

  /// The accumulator for `p`; `p` must belong to the construction store.
  Tensor& grad(const Parameter* p);

  /// Accumulator of the parameter at `index` in store->parameters() order.
  Tensor& at(size_t index) { return grads_[index]; }
  const Tensor& at(size_t index) const { return grads_[index]; }
  size_t size() const { return grads_.size(); }

  /// Zeroes every accumulator.
  void Zero();

 private:
  std::vector<Tensor> grads_;
  std::unordered_map<const Parameter*, size_t> index_;
};

}  // namespace nn
}  // namespace deepsd

#endif  // DEEPSD_NN_PARAMETER_H_
