#ifndef DEEPSD_CORE_TRAINER_H_
#define DEEPSD_CORE_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "core/model.h"
#include "nn/adam.h"
#include "nn/sgd.h"

namespace deepsd {
namespace core {

struct TrainerCheckpoint;  // core/checkpoint.h

/// Training-loop configuration (paper Sec VI-B/C): Adam, batch 64, dropout
/// handled by the model, 50 epochs, final model = average of the best 10
/// epochs by evaluation RMSE.
struct TrainConfig {
  int epochs = 50;
  int batch_size = 64;
  float learning_rate = 1e-3f;
  /// Average the parameter snapshots of the best `best_k` epochs (by eval
  /// RMSE) into the final model; 0 keeps the last epoch's weights.
  int best_k = 10;
  uint64_t seed = 7;
  bool shuffle = true;
  bool verbose = false;
  /// One-step learning-rate decay: multiply the rate by `lr_decay_factor`
  /// after `lr_decay_at_fraction` of the epochs. The paper trains long
  /// enough (300k Adam steps) not to need it; at CPU-budget epoch counts it
  /// stabilizes the late epochs so best-k snapshot averaging averages
  /// models in the same basin. Set the factor to 1 to disable.
  double lr_decay_at_fraction = 0.6;
  float lr_decay_factor = 0.3f;

  /// Optimizer choice; the paper uses Adam (Sec VI-B3). SGD+momentum exists
  /// for the optimizer ablation.
  enum class Optimizer { kAdam, kSgdMomentum };
  Optimizer optimizer = Optimizer::kAdam;

  /// Fault tolerance: when non-empty, write an atomic, CRC-sealed
  /// checkpoint (core/checkpoint.h) to this path at every epoch end and —
  /// if `checkpoint_every_steps` > 0 — after every N-th optimizer step.
  /// Resuming from any such checkpoint reproduces the uninterrupted run
  /// bit-for-bit (docs/robustness.md).
  std::string checkpoint_path;
  uint64_t checkpoint_every_steps = 0;

  /// Samples per data-parallel gradient shard. Each minibatch is split
  /// into ceil(batch/shard_size) shards that run forward/backward on
  /// shard-local graphs (distributed over util::ThreadPool::Global());
  /// shard gradients are reduced in a fixed tree order over shard index.
  /// Because the decomposition depends only on this value — never on the
  /// thread count — training is bit-identical for any --threads setting
  /// (see docs/parallelism.md). Changing shard_size changes rounding, so
  /// it is a training hyperparameter, not a scheduling knob.
  int shard_size = 8;
};

/// Per-epoch training record. Timings come from the obs span layer
/// (obs/trace.h) and are always measured, whether or not telemetry export
/// is enabled.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0;  ///< Mean MSE over the epoch's batches.
  double eval_mae = 0;
  double eval_rmse = 0;
  double seconds = 0;        ///< batch_seconds + eval_seconds.
  double batch_seconds = 0;  ///< Wall-clock time of the epoch's updates.
  double eval_seconds = 0;   ///< Wall-clock time of the epoch's evaluation.
};

/// Outcome of Trainer::Train. `history` holds one entry per epoch; the
/// model's ParameterStore ends up holding the best-k average.
struct TrainResult {
  std::vector<EpochStats> history;
  double best_eval_rmse = 0;
  double final_eval_mae = 0;   ///< After best-k averaging.
  double final_eval_rmse = 0;
  double total_seconds = 0;
  double seconds_per_epoch = 0;
};

/// Mini-batch SGD driver for DeepSDModel.
class Trainer {
 public:
  explicit Trainer(const TrainConfig& config) : config_(config) {}

  /// Trains `model` (whose parameters live in `store`) on `train_source`,
  /// evaluating on `eval_source` after every epoch exactly as the paper
  /// does. On return `store` holds the averaged best-k snapshot.
  /// `on_epoch` (optional) observes each epoch as it completes.
  ///
  /// `resume` (optional) continues a checkpointed run: the trainer restores
  /// parameters, optimizer moments, RNG and shuffle state, epoch/step
  /// cursors and the best-k ring, then picks up at the exact batch the
  /// checkpoint recorded. The caller must have validated the checkpoint
  /// with ValidateResume (the trainer re-checks and aborts on mismatch,
  /// since Train has no error channel).
  TrainResult Train(
      DeepSDModel* model, nn::ParameterStore* store,
      const InputSource& train_source, const InputSource& eval_source,
      const std::function<void(const EpochStats&)>& on_epoch = nullptr,
      const TrainerCheckpoint* resume = nullptr);

  /// Convenience overload over materialized inputs.
  TrainResult Train(
      DeepSDModel* model, nn::ParameterStore* store,
      const std::vector<feature::ModelInput>& train_inputs,
      const std::vector<feature::ModelInput>& eval_inputs,
      const std::function<void(const EpochStats&)>& on_epoch = nullptr,
      const TrainerCheckpoint* resume = nullptr);

  /// Incremental fine-tune entry for the continuous-learning loop: warm-
  /// starts `store` from `source` (matching name/shape parameters copied,
  /// including activation-calibration state — ParameterStore::CopyFrom),
  /// then runs the ordinary Train loop. With `resume` the warm start is
  /// skipped: the checkpoint already holds the mid-fine-tune parameters,
  /// and re-copying the source would break the bitwise resume contract.
  TrainResult FineTuneFrom(
      DeepSDModel* model, nn::ParameterStore* store,
      const nn::ParameterStore& source, const InputSource& train_source,
      const InputSource& eval_source,
      const std::function<void(const EpochStats&)>& on_epoch = nullptr,
      const TrainerCheckpoint* resume = nullptr);

 private:
  TrainConfig config_;
};

/// MAE and RMSE of `model` over `source`.
std::pair<double, double> EvaluateMaeRmse(const DeepSDModel& model,
                                          const InputSource& source);

/// Fills the activation-range EWMA (nn::Parameter::act_absmax) of every
/// weight in `model` by running calibration forward passes over up to
/// `max_samples` inputs of `source`. The int8 kernels use these as static
/// quantization scales; model artifacts and checkpoint v3 persist them.
/// Trainer::Train calls this automatically at the end; fine-tuning
/// flows that bypass the trainer can call it directly. Single-threaded,
/// deterministic, and value-preserving (predictions are not affected).
void CalibrateActivations(const DeepSDModel& model, const InputSource& source,
                          size_t max_samples = 4096, int batch_size = 256);

}  // namespace core
}  // namespace deepsd

#endif  // DEEPSD_CORE_TRAINER_H_
