// deepsd_train: train a DeepSD model on a saved dataset and write it as a
// DSAR1 model artifact (docs/model_store.md).
//
//   deepsd_train --data=city.bin --model=model.bin --mode=advanced
//                --train_days=24 [--epochs=50] [--batch=64] [--lr=1e-3]
//                [--best_k=10] [--stride=5] [--no_weather] [--no_traffic]
//                [--no_residual] [--onehot] [--finetune_from=prev.bin]
//                [--checkpoint=ck.bin] [--checkpoint_every=100]
//                [--resume=ck.bin] [--model_format=raw|compressed|quant]
//                [--metrics-out=metrics.jsonl] [--trace-out=trace.json]
//
// --metrics-out / --trace-out turn telemetry on and, after training, write
// the metric registry as JSON lines and the span timeline as
// chrome://tracing JSON (see docs/observability.md).
//
// --finetune_from takes a DSAR1 artifact (any encoding) and warm-starts
// every parameter whose name and shape match (paper Sec V-C): a model
// trained without traffic can seed one that adds the traffic block.
//
// --checkpoint enables fault tolerance: training state is written
// atomically at every epoch end and (with --checkpoint_every=N) every N
// optimizer steps. A run killed at any point can be continued with
// --resume=<checkpoint> plus the same data and flags, and produces a
// final model bitwise identical to the uninterrupted run at any
// --threads setting (docs/robustness.md).

#include <cstdio>
#include <memory>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/serialize.h"
#include "obs/metrics_io.h"
#include "obs/trace.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "util/cli.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace deepsd;
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown(
      {"data", "model", "mode", "train_days", "eval_days", "epochs", "batch",
       "lr", "best_k", "stride", "no_weather", "no_traffic", "no_residual",
       "onehot", "finetune_from", "checkpoint", "checkpoint_every", "resume",
       "seed", "threads", "verbose", "model_format", "metrics-out",
       "trace-out", "help"});
  if (!st.ok() || cli.GetBool("help", false) || !cli.Has("data")) {
    std::fprintf(stderr,
                 "%s\nusage: deepsd_train --data=city.bin --model=model.bin "
                 "--mode=basic|advanced --train_days=N [--epochs=50] "
                 "[--batch=64] [--lr=1e-3] [--best_k=10] [--stride=5] "
                 "[--no_weather] [--no_traffic] [--no_residual] [--onehot] "
                 "[--finetune_from=prev.bin] [--checkpoint=ck.bin] "
                 "[--checkpoint_every=N] [--resume=ck.bin] [--seed=7] "
                 "[--threads=N] [--verbose] "
                 "[--model_format=raw|compressed|quant] "
                 "[--metrics-out=metrics.jsonl] [--trace-out=trace.json]\n",
                 st.ToString().c_str());
    return st.ok() ? 2 : 2;
  }

  const bool telemetry = cli.Has("metrics-out") || cli.Has("trace-out");
  if (telemetry) obs::SetEnabled(true);

  // 0 = hardware concurrency. Results are bit-identical for every value
  // (docs/parallelism.md); --threads only changes speed.
  st = util::ThreadPool::SetGlobalThreads(
      static_cast<int>(cli.GetInt("threads", 0)));
  if (!st.ok()) {
    std::fprintf(stderr, "--threads: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("threads: %d\n", util::ThreadPool::GlobalThreads());

  data::OrderDataset dataset;
  st = data::LoadDataset(cli.GetString("data"), &dataset);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  int train_days = static_cast<int>(
      cli.GetInt("train_days", dataset.num_days() * 2 / 3));
  int eval_days = static_cast<int>(
      cli.GetInt("eval_days", dataset.num_days() - train_days));
  std::printf("dataset: %d areas, %d days, %zu orders; training on days "
              "[0,%d), evaluating on [%d,%d)\n",
              dataset.num_areas(), dataset.num_days(), dataset.num_orders(),
              train_days, train_days, train_days + eval_days);

  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&dataset, fc, 0, train_days);
  int stride = static_cast<int>(cli.GetInt("stride", 5));
  auto train_items = data::MakeItems(dataset, 0, train_days, 20, 1430, stride);
  auto eval_items =
      data::MakeTestItems(dataset, train_days, train_days + eval_days);

  core::DeepSDConfig config;
  config.num_areas = dataset.num_areas();
  config.use_weather = !cli.GetBool("no_weather", false) && dataset.has_weather();
  config.use_traffic = !cli.GetBool("no_traffic", false) && dataset.has_traffic();
  config.use_residual = !cli.GetBool("no_residual", false);
  config.use_embedding = !cli.GetBool("onehot", false);

  bool advanced = cli.GetString("mode", "advanced") == "advanced";
  nn::ParameterStore params;
  util::Rng rng(static_cast<uint64_t>(cli.GetInt("seed", 7)));
  core::DeepSDModel model(config,
                          advanced ? core::DeepSDModel::Mode::kAdvanced
                                   : core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  std::printf("%s model: %zu parameters in %zu tensors\n",
              advanced ? "advanced" : "basic", params.NumWeights(),
              params.parameters().size());

  // --model_format picks the artifact's tensor encoding
  // (docs/model_store.md): raw fp32 served zero-copy, lossless compressed
  // blocks (default), or int8 GEMM weights so serving replicas load
  // ready-to-run quantized weights. Checked before training starts.
  store::PackOptions pack;
  const std::string format = cli.GetString("model_format", "compressed");
  if (!store::ParseParamEncoding(format, &pack.encoding)) {
    std::fprintf(stderr,
                 "--model_format: unknown value '%s' "
                 "(expected raw|compressed|quant)\n",
                 format.c_str());
    return 2;
  }

  if (cli.Has("finetune_from")) {
    const std::string from = cli.GetString("finetune_from");
    std::shared_ptr<const store::StoredModel> source;
    st = store::StoredModel::Open(from, &source);
    if (!st.ok()) {
      std::fprintf(stderr, "finetune load failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const int loaded = params.CopyFrom(source->params());
    std::printf("fine-tuning: %d tensors loaded from %s\n", loaded,
                from.c_str());
  }

  core::TrainConfig tc;
  tc.epochs = static_cast<int>(cli.GetInt("epochs", 50));
  tc.batch_size = static_cast<int>(cli.GetInt("batch", 64));
  tc.learning_rate = static_cast<float>(cli.GetDouble("lr", 1e-3));
  tc.best_k = static_cast<int>(cli.GetInt("best_k", 10));
  tc.seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  tc.verbose = cli.GetBool("verbose", true);
  tc.checkpoint_path = cli.GetString("checkpoint", "");
  tc.checkpoint_every_steps =
      static_cast<uint64_t>(cli.GetInt("checkpoint_every", 0));

  core::TrainerCheckpoint checkpoint;
  const core::TrainerCheckpoint* resume = nullptr;
  if (cli.Has("resume")) {
    std::string path = cli.GetString("resume");
    st = core::LoadCheckpoint(path, &checkpoint);
    if (st.ok()) st = core::ValidateResume(checkpoint, tc, params);
    if (!st.ok()) {
      std::fprintf(stderr, "resume failed: %s\n", st.ToString().c_str());
      return 1;
    }
    resume = &checkpoint;
    std::printf("resuming from %s: epoch %d, step %llu\n", path.c_str(),
                checkpoint.epoch,
                static_cast<unsigned long long>(checkpoint.step));
  }

  core::AssemblerSource train(&assembler, train_items, advanced);
  core::AssemblerSource eval(&assembler, eval_items, advanced);
  core::Trainer trainer(tc);
  core::TrainResult result =
      trainer.Train(&model, &params, train, eval, nullptr, resume);
  std::printf("final: MAE=%.3f RMSE=%.3f (best epoch RMSE %.3f, %.1fs/epoch)\n",
              result.final_eval_mae, result.final_eval_rmse,
              result.best_eval_rmse, result.seconds_per_epoch);

  std::string out = cli.GetString("model", "model.bin");
  st = store::PackModelArtifact(model, params, nullptr, pack, out);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  if (cli.Has("metrics-out")) {
    std::string path = cli.GetString("metrics-out");
    st = obs::WriteJsonLines(obs::MetricsRegistry::Global().Snapshot(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (cli.Has("trace-out")) {
    std::string path = cli.GetString("trace-out");
    st = obs::TraceExporter::WriteJson(path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace dump failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                path.c_str());
  }
  return 0;
}
