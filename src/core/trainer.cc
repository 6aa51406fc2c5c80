#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/batch.h"
#include "core/checkpoint.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace core {

namespace {

/// SplitMix64 step — mixes a word into a seed stream.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Dropout seed of one gradient shard: a pure function of (training seed,
/// global step, shard index), so the mask stream a shard draws is the same
/// no matter which worker runs it or how many threads exist.
uint64_t ShardSeed(uint64_t seed, uint64_t step, uint64_t shard) {
  return Mix64(Mix64(seed ^ (step * 0x9E3779B97F4A7C15ULL)) ^
               (shard + 0xD1B54A32D192ED03ULL));
}

/// Pairwise tree sum over `values` — the scalar-loss twin of the gradient
/// reduction, with the same fixed, thread-count-independent order.
double TreeSum(std::vector<double> values) {
  if (values.empty()) return 0.0;
  for (size_t stride = 1; stride < values.size(); stride *= 2) {
    for (size_t i = 0; i + stride < values.size(); i += 2 * stride) {
      values[i] += values[i + stride];
    }
  }
  return values[0];
}

/// Snapshots every parameter's value in checkpoint (name-addressed) form.
std::vector<nn::NamedTensor> ExportParams(const nn::ParameterStore& store) {
  std::vector<nn::NamedTensor> out;
  out.reserve(store.parameters().size());
  for (const auto& p : store.parameters()) {
    out.push_back({p->name, p->value});
  }
  return out;
}

}  // namespace

std::pair<double, double> EvaluateMaeRmse(const DeepSDModel& model,
                                          const InputSource& source) {
  if (source.size() == 0) return {0.0, 0.0};
  std::vector<float> preds = model.Predict(source);
  double abs_sum = 0.0, sq_sum = 0.0;
  for (size_t i = 0; i < source.size(); ++i) {
    double d = static_cast<double>(preds[i]) - source.Target(i);
    abs_sum += std::abs(d);
    sq_sum += d * d;
  }
  double n = static_cast<double>(source.size());
  return {abs_sum / n, std::sqrt(sq_sum / n)};
}

void CalibrateActivations(const DeepSDModel& model, const InputSource& source,
                          size_t max_samples, int batch_size) {
  // Quant mode would calibrate against already-quantized activations;
  // ranges must come from the fp32 forward.
  std::optional<nn::kernels::ScopedKernelMode> fp32_guard;
  if (nn::kernels::kernel_mode() == nn::kernels::KernelMode::kQuant) {
    fp32_guard.emplace(nn::kernels::KernelMode::kBlocked);
  }
  const size_t limit = std::min(source.size(), max_samples);
  const size_t span = static_cast<size_t>(std::max(batch_size, 1));
  nn::Graph g;
  g.set_training(false);
  g.set_calibrating(true);
  for (size_t begin = 0; begin < limit; begin += span) {
    const size_t end = std::min(begin + span, limit);
    Batch batch = MakeBatch(source, begin, end);
    g.Clear();
    model.Forward(&g, batch);
  }
}

TrainResult Trainer::Train(
    DeepSDModel* model, nn::ParameterStore* store,
    const std::vector<feature::ModelInput>& train_inputs,
    const std::vector<feature::ModelInput>& eval_inputs,
    const std::function<void(const EpochStats&)>& on_epoch,
    const TrainerCheckpoint* resume) {
  return Train(model, store, VectorSource(train_inputs),
               VectorSource(eval_inputs), on_epoch, resume);
}

TrainResult Trainer::FineTuneFrom(
    DeepSDModel* model, nn::ParameterStore* store,
    const nn::ParameterStore& source, const InputSource& train_source,
    const InputSource& eval_source,
    const std::function<void(const EpochStats&)>& on_epoch,
    const TrainerCheckpoint* resume) {
  if (resume == nullptr) store->CopyFrom(source);
  return Train(model, store, train_source, eval_source, on_epoch, resume);
}

TrainResult Trainer::Train(
    DeepSDModel* model, nn::ParameterStore* store,
    const InputSource& train_source, const InputSource& eval_source,
    const std::function<void(const EpochStats&)>& on_epoch,
    const TrainerCheckpoint* resume) {
  DEEPSD_CHECK(train_source.size() > 0);
  // Training is fp32 by contract: under DEEPSD_KERNEL=quant the whole
  // Train() call — forward, backward, and the epoch evals that drive
  // best-k selection — runs on the blocked kernels, bitwise identical to
  // DEEPSD_KERNEL=blocked. The mode is restored on return, so serving the
  // trained model still picks up the int8 path.
  std::optional<nn::kernels::ScopedKernelMode> fp32_guard;
  if (nn::kernels::kernel_mode() == nn::kernels::KernelMode::kQuant) {
    fp32_guard.emplace(nn::kernels::KernelMode::kBlocked);
  }
  TrainResult result;

  util::Rng rng(config_.seed);
  nn::Adam adam({.learning_rate = config_.learning_rate});
  nn::Sgd sgd({.learning_rate = config_.learning_rate});
  const bool use_adam = config_.optimizer == TrainConfig::Optimizer::kAdam;
  auto optimizer_step = [&](nn::ParameterStore* s) {
    return use_adam ? adam.Step(s) : sgd.Step(s);
  };
  auto set_lr = [&](float lr) {
    if (use_adam) {
      adam.set_learning_rate(lr);
    } else {
      sgd.set_learning_rate(lr);
    }
  };

  std::vector<size_t> order(train_source.size());
  std::iota(order.begin(), order.end(), 0);

  // Snapshots of the best epochs, kept sorted by eval RMSE (ascending).
  struct Snapshot {
    double rmse;
    std::unique_ptr<nn::ParameterStore> store;
  };
  std::vector<Snapshot> best;

  const int decay_epoch = static_cast<int>(
      config_.lr_decay_at_fraction * config_.epochs);

  // Resume: put every piece of trainer state back exactly where the
  // checkpoint recorded it. Dropout needs no restoration — shard mask
  // streams are pure functions of (seed, step, shard) — so the shuffle RNG
  // and the in-flight permutation are the only stochastic state.
  int start_epoch = 0;
  uint64_t resume_sample = 0;  // batch offset within the resumed epoch
  uint64_t step = 0;  // global batch counter, seeds shard dropout streams
  double resume_loss_sum = 0.0;
  uint64_t resume_batches = 0;
  if (resume != nullptr) {
    util::Status st = ValidateResume(*resume, config_, *store);
    if (!st.ok()) {
      DEEPSD_LOG(Error) << "cannot resume: " << st.ToString();
    }
    DEEPSD_CHECK(st.ok());
    DEEPSD_CHECK(resume->order.size() == train_source.size());
    // Parameter values + int8 calibration. Calibration is harmless for
    // resume determinism: act_absmax never enters fp32 math, and the
    // trainer recalibrates at the end of the run anyway.
    ApplyCheckpointParams(*resume, store);
    if (use_adam) {
      adam.set_timestep(resume->adam_t);
      adam.ImportState(*store, resume->adam_m, resume->adam_v);
    } else {
      sgd.ImportState(*store, resume->sgd_velocity);
    }
    rng.SetState(resume->rng_state);
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<size_t>(resume->order[i]);
    }
    result.history = resume->history;
    for (const TrainerCheckpoint::BestEntry& e : resume->best) {
      Snapshot snap{e.rmse, store->Clone()};
      ApplyNamedTensors(e.params, snap.store.get());
      best.push_back(std::move(snap));
    }
    start_epoch = resume->epoch;
    resume_sample = resume->next_sample;
    step = resume->step;
    resume_loss_sum = resume->partial_loss_sum;
    resume_batches = resume->partial_batches;
    // Epochs at or before the decay point re-apply the decay inside the
    // loop (set_lr writes an absolute rate, so that is idempotent); only a
    // resume landing past the decay epoch must catch up here.
    if (config_.lr_decay_factor != 1.0f && decay_epoch > 0 &&
        start_epoch > decay_epoch) {
      set_lr(config_.learning_rate * config_.lr_decay_factor);
    }
  }

  // Telemetry: spans feed both the chrome-trace export and the latency
  // histograms; the TimedSpans below additionally supply EpochStats even
  // when obs is disabled.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* epochs_counter = registry.GetCounter("trainer/epochs");
  obs::Counter* batches_counter = registry.GetCounter("trainer/batches");
  obs::Counter* shards_counter = registry.GetCounter("trainer/shards");
  obs::Histogram* batch_us = registry.GetHistogram("trainer/batch_us");
  obs::Histogram* shard_us = registry.GetHistogram("trainer/shard_us");
  obs::Gauge* last_rmse = registry.GetGauge("trainer/last_eval_rmse");
  obs::Counter* checkpoints_counter = registry.GetCounter("trainer/checkpoints");

  // Data-parallel machinery. A minibatch is cut into fixed-size shards
  // (shard grain never depends on the thread count); each shard runs
  // forward/backward on its own graph, accumulating into a reusable
  // shard-local GradBuffer, and the buffers are reduced pairwise over
  // shard index. Thread count only decides which worker executes a shard,
  // so training is bit-identical from --threads 1 to --threads N.
  util::ThreadPool& pool = util::ThreadPool::Global();
  const size_t shard_grain =
      static_cast<size_t>(std::max(config_.shard_size, 1));
  const size_t batch_span = static_cast<size_t>(config_.batch_size);
  const size_t max_shards = (batch_span + shard_grain - 1) / shard_grain;
  std::vector<nn::GradBuffer> shard_grads;
  shard_grads.reserve(max_shards);
  for (size_t s = 0; s < max_shards; ++s) shard_grads.emplace_back(*store);
  // One long-lived graph per shard slot: each batch replays the same
  // topology into the slot's arena-recycled tensor storage, so the
  // steady-state forward/backward performs no heap allocations. Shard s
  // always uses shard_graphs[s] no matter which worker runs it, keeping
  // the bit-identity-for-any-thread-count contract.
  std::vector<nn::Graph> shard_graphs(max_shards);
  const auto& params = store->parameters();

  // Serializes the full trainer state (docs/robustness.md). Called after an
  // optimizer step (mid-epoch, next_sample = offset of the next batch) or
  // after an epoch fully completes (next_sample = 0, epoch = the next one).
  const bool checkpointing = !config_.checkpoint_path.empty();
  // Input-reference histogram for serving-side drift scoring (core/drift.h):
  // sampled from the training source once — the distribution is a property
  // of the run, not of the step — and attached to every checkpoint written.
  ReferenceHistogram input_reference;
  bool input_reference_built = false;
  auto write_checkpoint = [&](int ck_epoch, uint64_t next_sample,
                              double loss_sum, uint64_t batches) {
    if (!input_reference_built) {
      input_reference = BuildInputReference(train_source);
      input_reference_built = true;
    }
    TrainerCheckpoint ck;
    ck.config = config_;
    ck.epoch = ck_epoch;
    ck.next_sample = next_sample;
    ck.step = step;
    ck.rng_state = rng.State();
    ck.order.assign(order.begin(), order.end());
    ck.partial_loss_sum = loss_sum;
    ck.partial_batches = batches;
    ck.history = result.history;
    ck.params = ExportParams(*store);
    if (use_adam) {
      ck.adam_t = adam.timestep();
      adam.ExportState(*store, &ck.adam_m, &ck.adam_v);
    } else {
      sgd.ExportState(*store, &ck.sgd_velocity);
    }
    ck.best.reserve(best.size());
    for (const Snapshot& s : best) {
      ck.best.push_back({s.rmse, ExportParams(*s.store)});
    }
    ck.input_reference = input_reference;
    ck.calibration.reserve(store->parameters().size());
    for (const auto& p : store->parameters()) {
      if (p->act_absmax > 0.0f) {
        ck.calibration.push_back({p->name, p->act_absmax});
      }
    }
    util::Status st = SaveCheckpoint(ck, config_.checkpoint_path);
    if (st.ok()) {
      checkpoints_counter->Inc();
    } else {
      // Training carries on: a failed checkpoint write costs resumability,
      // not correctness.
      DEEPSD_LOG(Error) << "checkpoint write failed: " << st.ToString();
    }
  };

  obs::TimedSpan train_span("trainer/train");
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    obs::TimedSpan epoch_span("trainer/epoch");
    if (config_.lr_decay_factor != 1.0f && epoch == decay_epoch && epoch > 0) {
      set_lr(config_.learning_rate * config_.lr_decay_factor);
    }
    // A mid-epoch resume re-enters an epoch whose shuffle already happened;
    // `order` and the RNG hold the post-shuffle state, so re-shuffling here
    // would tear the run away from the uninterrupted trajectory.
    const bool resumed_mid_epoch = epoch == start_epoch && resume_sample > 0;
    if (config_.shuffle && !resumed_mid_epoch) {
      for (size_t i = order.size(); i > 1; --i) {
        size_t j = rng.UniformInt(i);
        std::swap(order[i - 1], order[j]);
      }
    }

    double loss_sum = resumed_mid_epoch ? resume_loss_sum : 0.0;
    size_t batches =
        resumed_mid_epoch ? static_cast<size_t>(resume_batches) : 0;
    const size_t first_sample =
        resumed_mid_epoch ? static_cast<size_t>(resume_sample) : 0;
    obs::TimedSpan batch_phase("trainer/epoch_batches");
    for (size_t begin = first_sample; begin < order.size();
         begin += batch_span) {
      DEEPSD_SPAN("trainer/batch", batch_us);
      const size_t end = std::min(order.size(), begin + batch_span);
      const size_t batch_size = end - begin;
      const size_t num_shards = (batch_size + shard_grain - 1) / shard_grain;
      std::vector<double> shard_loss(num_shards, 0.0);

      pool.ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
        for (size_t s = s0; s < s1; ++s) {
          DEEPSD_SPAN("trainer/shard", shard_us);
          const size_t sb = begin + s * shard_grain;
          const size_t se = std::min(end, sb + shard_grain);
          std::vector<size_t> idx(order.begin() + static_cast<long>(sb),
                                  order.begin() + static_cast<long>(se));
          Batch batch = MakeBatch(train_source, idx);

          util::Rng dropout_rng(ShardSeed(config_.seed, step, s));
          nn::GradBuffer& grads = shard_grads[s];
          grads.Zero();
          nn::Graph& g = shard_graphs[s];
          g.Clear();
          g.set_rng(&dropout_rng);
          g.set_training(true);
          g.set_grad_buffer(&grads);
          nn::NodeId pred = model->Forward(&g, batch);
          // Shard losses are squared error over the shard divided by the
          // full batch size, so per-sample gradients match the unsharded
          // mean and the shard losses sum to the batch loss.
          nn::NodeId loss = g.MseLoss(pred, batch.target,
                                      static_cast<double>(batch_size));
          g.Backward(loss);
          shard_loss[s] = static_cast<double>(g.value(loss).at(0, 0));
          // dropout_rng and grads are loop-local; drop the references so
          // the persistent graph never dangles between batches.
          g.set_rng(nullptr);
          g.set_grad_buffer(nullptr);
        }
      });
      shards_counter->Inc(num_shards);

      // Deterministic reduction: pairwise tree over shard index, written
      // into the store's gradients; one parameter per work item.
      pool.ParallelFor(0, params.size(), 8, [&](size_t p0, size_t p1) {
        for (size_t p = p0; p < p1; ++p) {
          for (size_t stride = 1; stride < num_shards; stride *= 2) {
            for (size_t i = 0; i + stride < num_shards; i += 2 * stride) {
              nn::Tensor& dst = shard_grads[i].at(p);
              const nn::Tensor& src = shard_grads[i + stride].at(p);
              for (size_t k = 0; k < dst.size(); ++k) {
                dst.flat()[k] += src.flat()[k];
              }
            }
          }
          params[p]->grad = shard_grads[0].at(p);
        }
      });

      optimizer_step(store);
      loss_sum += TreeSum(std::move(shard_loss));
      ++batches;
      ++step;
      batches_counter->Inc();
      if (checkpointing && config_.checkpoint_every_steps > 0 &&
          step % config_.checkpoint_every_steps == 0) {
        write_checkpoint(epoch, end, loss_sum, batches);
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
    stats.batch_seconds = batch_phase.Stop();
    obs::TimedSpan eval_phase("trainer/epoch_eval");
    auto [mae, rmse] = EvaluateMaeRmse(*model, eval_source);
    stats.eval_seconds = eval_phase.Stop();
    stats.seconds = stats.batch_seconds + stats.eval_seconds;
    stats.eval_mae = mae;
    stats.eval_rmse = rmse;
    result.history.push_back(stats);
    epochs_counter->Inc();
    last_rmse->Set(rmse);

    if (config_.verbose) {
      DEEPSD_LOG(Info) << util::StrFormat(
          "epoch %3d  train_mse=%.3f  eval_mae=%.3f  eval_rmse=%.3f  "
          "(%.1fs batches + %.1fs eval)",
          epoch, stats.train_loss, stats.eval_mae, stats.eval_rmse,
          stats.batch_seconds, stats.eval_seconds);
    }
    if (on_epoch) on_epoch(stats);

    if (config_.best_k > 0 && eval_source.size() > 0) {
      Snapshot snap{rmse, store->Clone()};
      auto pos = std::lower_bound(
          best.begin(), best.end(), snap.rmse,
          [](const Snapshot& s, double v) { return s.rmse < v; });
      best.insert(pos, std::move(snap));
      if (static_cast<int>(best.size()) > config_.best_k) best.pop_back();
    }

    // Epoch-end checkpoint, written only after the best-k ring absorbed
    // this epoch so a resume can rebuild the final averaged model exactly.
    if (checkpointing) write_checkpoint(epoch + 1, 0, 0.0, 0);
  }
  result.total_seconds = train_span.Stop();
  result.seconds_per_epoch =
      config_.epochs > 0 ? result.total_seconds / config_.epochs : 0.0;

  if (!best.empty()) {
    result.best_eval_rmse = best.front().rmse;
    std::vector<const nn::ParameterStore*> stores;
    stores.reserve(best.size());
    for (const Snapshot& s : best) stores.push_back(s.store.get());
    store->AverageFrom(stores);
  } else if (!result.history.empty()) {
    result.best_eval_rmse = result.history.back().eval_rmse;
  }

  auto [mae, rmse] = EvaluateMaeRmse(*model, eval_source);
  result.final_eval_mae = mae;
  result.final_eval_rmse = rmse;

  // Int8 calibration pass over (a bounded prefix of) the training data:
  // one single-threaded run of the final averaged model with the graph in
  // calibration mode fills every weight's activation-range EWMA
  // (Parameter::act_absmax), which model artifacts and the v3 checkpoint
  // persist so serving replicas run the static quantization scales.
  // Values are untouched; this costs one small forward sweep.
  CalibrateActivations(*model, train_source);
  return result;
}

}  // namespace core
}  // namespace deepsd
