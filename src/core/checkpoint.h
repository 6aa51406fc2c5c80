#ifndef DEEPSD_CORE_CHECKPOINT_H_
#define DEEPSD_CORE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/trainer.h"
#include "nn/parameter.h"
#include "util/status.h"

namespace deepsd {
namespace core {

/// Complete mid-run state of a Trainer — everything a fresh process needs
/// to continue a killed training run and land on a **bitwise-identical**
/// final model (the resume leg of the determinism contract,
/// docs/parallelism.md; format details in docs/robustness.md).
///
/// The inventory follows from what the training loop actually consumes:
/// parameter values, optimizer moments + timestep (bias correction), the
/// shuffle RNG state and the current epoch's sample order (dropout needs
/// nothing — shard masks are pure functions of (seed, step, shard)), the
/// epoch/step cursors, the partial-epoch loss accumulators, the best-k
/// snapshot ring, and the per-epoch history so a resumed run's TrainResult
/// is complete. The TrainConfig fingerprint travels along so resuming with
/// mismatched hyperparameters is a typed error, not silent divergence.
struct TrainerCheckpoint {
  /// Numerics-relevant config of the run that wrote the checkpoint.
  TrainConfig config;

  int epoch = 0;            ///< Epoch in progress (== next epoch when
                            ///< next_sample is 0).
  uint64_t next_sample = 0; ///< Offset into `order` of the next batch.
  uint64_t step = 0;        ///< Completed optimizer steps (global batches).

  /// Shuffle RNG state *after* the in-progress epoch's shuffle; together
  /// with `order` this reproduces every future shuffle exactly.
  std::array<uint64_t, 4> rng_state{};
  /// The in-progress epoch's sample permutation.
  std::vector<uint64_t> order;

  double partial_loss_sum = 0;  ///< Loss accumulated over completed batches
                                ///< of the in-progress epoch.
  uint64_t partial_batches = 0;

  std::vector<EpochStats> history;  ///< Completed epochs so far.

  std::vector<nn::NamedTensor> params;  ///< Current parameter values.

  // Optimizer state. `optimizer` mirrors config.optimizer; Adam fills
  // adam_m / adam_v / adam_t, SGD+momentum fills sgd_velocity.
  int64_t adam_t = 0;
  std::vector<nn::NamedTensor> adam_m;
  std::vector<nn::NamedTensor> adam_v;
  std::vector<nn::NamedTensor> sgd_velocity;

  /// Best-k epoch ring, sorted by eval RMSE ascending, exactly as the
  /// trainer keeps it (the final model is the average of these snapshots).
  struct BestEntry {
    double rmse = 0;
    std::vector<nn::NamedTensor> params;
  };
  std::vector<BestEntry> best;

  /// Training-time distribution of the input activity feature, the anchor
  /// for serving-side PSI drift scoring (core/drift.h,
  /// eval::OnlineAccuracyTracker). Empty when the trainer could not sample
  /// the source; not part of the resume determinism contract.
  ReferenceHistogram input_reference;

  /// Per-parameter int8 calibration (nn::Parameter::act_absmax).
  /// Zero/absent entries mean "uncalibrated" (the quant
  /// kernels fall back to dynamic per-row ranges); not part of the resume
  /// determinism contract — calibration never changes fp32 math.
  struct Calibration {
    std::string name;
    float act_absmax = 0.0f;
  };
  std::vector<Calibration> calibration;
};

/// Writes `ck` to `path` atomically (temp file + rename) with a CRC-32
/// seal over the payload, so a crash mid-write can never leave a torn
/// checkpoint and a torn/flipped file is detected on load.
util::Status SaveCheckpoint(const TrainerCheckpoint& ck,
                            const std::string& path);

/// Loads a checkpoint written by SaveCheckpoint. Typed failures:
/// IoError (unreadable / truncated), InvalidArgument (bad magic or
/// version, checksum mismatch, malformed payload). Never crashes on
/// corrupt input.
util::Status LoadCheckpoint(const std::string& path, TrainerCheckpoint* ck);

/// Checks that `ck` can resume a run with config `config` over parameters
/// `store`: every numerics-relevant hyperparameter must match and the
/// checkpointed tensors must cover the store's parameters exactly (same
/// names and shapes). Returns FailedPrecondition naming the first
/// mismatch. Call before Trainer::Train with a resume checkpoint.
util::Status ValidateResume(const TrainerCheckpoint& ck,
                            const TrainConfig& config,
                            const nn::ParameterStore& store);

/// Writes name-addressed tensors back into the matching parameters of
/// `store`, bumping versions so derived caches (int8 weights) invalidate.
/// Name and shape must match — CHECK otherwise; callers validate first
/// (ValidateResume or an explicit coverage check).
void ApplyNamedTensors(const std::vector<nn::NamedTensor>& tensors,
                       nn::ParameterStore* store);

/// The full "make `store` serve this checkpoint's model" step shared by
/// trainer resume and the model-store packer (store/pack.h): applies
/// ck.params via ApplyNamedTensors, then restores the per-parameter int8
/// calibration.
void ApplyCheckpointParams(const TrainerCheckpoint& ck,
                           nn::ParameterStore* store);

}  // namespace core
}  // namespace deepsd

#endif  // DEEPSD_CORE_CHECKPOINT_H_
