// Microbenchmarks (google-benchmark) for the performance-critical pieces:
// dense matmul, autograd forward/backward of a DeepSD-shaped block, the
// embedding lookup, feature assembly, simulator throughput, tree split
// search, and the advanced model's train step and eval forward. These are
// the knobs that dominate the end-to-end training time reported in Table
// III and the per-row cost of a served forward.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "baselines/gbdt.h"
#include "core/model.h"
#include "core/trainer.h"
#include "feature/feature_assembler.h"
#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "obs/timeline.h"
#include "sim/city_sim.h"
#include "store/pack.h"
#include "store/stored_model.h"

namespace deepsd {
namespace {

void BM_MatMul(benchmark::State& state) {
  // Second arg selects the kernel: 0 = naive reference, 1 = blocked.
  int n = static_cast<int>(state.range(0));
  nn::kernels::SetKernelMode(state.range(1) == 0
                                 ? nn::kernels::KernelMode::kNaive
                                 : nn::kernels::KernelMode::kBlocked);
  nn::Tensor a(64, n), b(n, n), out;
  util::Rng rng(1);
  for (float& v : a.flat()) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : b.flat()) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    nn::MatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * n * n);
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kBlocked);
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{32, 64, 128}, {0, 1}})
    ->ArgNames({"n", "blocked"});

void BM_EmbeddingLookup(benchmark::State& state) {
  nn::ParameterStore store;
  util::Rng rng(2);
  nn::Embedding embed(&store, "e", 1440, 6, &rng);
  std::vector<int> ids(64);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i * 20);
  for (auto _ : state) {
    nn::Graph g;
    benchmark::DoNotOptimize(g.value(embed.Apply(&g, ids)).data());
  }
}
BENCHMARK(BM_EmbeddingLookup);

void BM_BlockForwardBackward(benchmark::State& state) {
  // One FC64→FC32 residual block at batch 64, the unit the model stacks.
  nn::ParameterStore store;
  util::Rng rng(3);
  nn::Linear fc1(&store, "fc1", 140, 64, &rng);
  nn::Linear fc2(&store, "fc2", 64, 32, &rng);
  nn::Tensor x(64, 140), target(64, 32);
  for (float& v : x.flat()) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    nn::Graph g;
    nn::NodeId h = g.LeakyRelu(fc1.Apply(&g, g.Input(x)), 0.001f);
    nn::NodeId out = g.LeakyRelu(fc2.Apply(&g, h), 0.001f);
    nn::NodeId loss = g.MseLoss(out, target);
    store.ZeroGrads();
    g.Backward(loss);
    benchmark::DoNotOptimize(g.value(loss).at(0, 0));
  }
}
BENCHMARK(BM_BlockForwardBackward);

void BM_BlockForwardBackwardReused(benchmark::State& state) {
  // Same block on a long-lived graph (Clear() between steps) with the
  // fused FC→LReL op: the steady-state replay path the trainer runs.
  nn::ParameterStore store;
  util::Rng rng(3);
  nn::Linear fc1(&store, "fc1", 140, 64, &rng);
  nn::Linear fc2(&store, "fc2", 64, 32, &rng);
  nn::Tensor x(64, 140), target(64, 32);
  for (float& v : x.flat()) v = static_cast<float>(rng.Uniform(-1, 1));
  nn::Graph g;
  for (auto _ : state) {
    g.Clear();
    nn::NodeId h = fc1.ApplyLRel(&g, g.Input(x), 0.001f);
    nn::NodeId out = fc2.ApplyLRel(&g, h, 0.001f);
    nn::NodeId loss = g.MseLoss(out, target);
    store.ZeroGrads();
    g.Backward(loss);
    benchmark::DoNotOptimize(g.value(loss).at(0, 0));
  }
}
BENCHMARK(BM_BlockForwardBackwardReused);

struct MicroFixtures {
  data::OrderDataset dataset;
  std::unique_ptr<feature::FeatureAssembler> assembler;
  std::vector<data::PredictionItem> items;

  MicroFixtures() {
    sim::CityConfig config;
    config.num_areas = 6;
    config.num_days = 12;
    config.seed = 9;
    dataset = sim::SimulateCity(config);
    feature::FeatureConfig fc;
    assembler = std::make_unique<feature::FeatureAssembler>(&dataset, fc, 0, 10);
    items = data::MakeItems(dataset, 10, 12, 450, 1410, 30);
  }

  static MicroFixtures& Get() {
    static MicroFixtures* fixtures = new MicroFixtures();
    return *fixtures;
  }
};

void BM_AssembleBasic(benchmark::State& state) {
  MicroFixtures& f = MicroFixtures::Get();
  size_t i = 0;
  for (auto _ : state) {
    feature::ModelInput in =
        f.assembler->AssembleBasic(f.items[i++ % f.items.size()]);
    benchmark::DoNotOptimize(in.v_sd.data());
  }
}
BENCHMARK(BM_AssembleBasic);

void BM_AssembleAdvanced(benchmark::State& state) {
  MicroFixtures& f = MicroFixtures::Get();
  size_t i = 0;
  for (auto _ : state) {
    feature::ModelInput in =
        f.assembler->AssembleAdvanced(f.items[i++ % f.items.size()]);
    benchmark::DoNotOptimize(in.h_sd.data());
  }
}
BENCHMARK(BM_AssembleAdvanced);

void BM_SimulateDay(benchmark::State& state) {
  // Throughput of the generator itself: one 4-area day per iteration.
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::CityConfig config;
    config.num_areas = 4;
    config.num_days = 1;
    config.seed = seed++;
    data::OrderDataset ds = sim::SimulateCity(config);
    benchmark::DoNotOptimize(ds.num_orders());
  }
}
BENCHMARK(BM_SimulateDay)->Unit(benchmark::kMillisecond);

void BM_GbdtSplitSearch(benchmark::State& state) {
  // One boosted tree fit over a realistic slice of the flat feature matrix.
  MicroFixtures& f = MicroFixtures::Get();
  std::vector<std::vector<float>> rows;
  std::vector<float> y;
  for (size_t i = 0; i < f.items.size(); ++i) {
    rows.push_back(f.assembler->AssembleFlat(f.items[i], false));
    y.push_back(f.items[i].gap);
  }
  baselines::FeatureMatrix X = baselines::MakeFeatureMatrix(rows);
  for (auto _ : state) {
    baselines::GbdtConfig config;
    config.num_trees = 1;
    baselines::Gbdt gbdt(config);
    gbdt.Fit(X, y);
    benchmark::DoNotOptimize(gbdt.num_trees());
  }
  state.SetItemsProcessed(state.iterations() * X.rows * X.cols);
}
BENCHMARK(BM_GbdtSplitSearch)->Unit(benchmark::kMillisecond);

void BM_DeepSDTrainStep(benchmark::State& state) {
  // One Adam mini-batch update of the advanced model, the unit of Table
  // III's time-per-epoch column.
  MicroFixtures& f = MicroFixtures::Get();
  core::DeepSDConfig config;
  config.num_areas = f.dataset.num_areas();
  nn::ParameterStore store;
  util::Rng rng(11);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  std::vector<feature::ModelInput> inputs;
  for (size_t i = 0; i < 64; ++i) {
    inputs.push_back(f.assembler->AssembleAdvanced(f.items[i % f.items.size()]));
  }
  core::Batch batch =
      core::MakeBatch(core::VectorSource(inputs), 0, inputs.size());
  nn::Adam adam;
  for (auto _ : state) {
    nn::Graph g(&rng);
    g.set_training(true);
    nn::NodeId pred = model.Forward(&g, batch);
    nn::NodeId loss = g.MseLoss(pred, batch.target);
    store.ZeroGrads();
    g.Backward(loss);
    adam.Step(&store);
    benchmark::DoNotOptimize(g.value(loss).at(0, 0));
  }
}
BENCHMARK(BM_DeepSDTrainStep)->Unit(benchmark::kMillisecond);

void BM_DeepSDTrainStepReused(benchmark::State& state) {
  // BM_DeepSDTrainStep on one long-lived graph: after warm-up every
  // tensor is recycled in place, so this isolates pure compute.
  MicroFixtures& f = MicroFixtures::Get();
  core::DeepSDConfig config;
  config.num_areas = f.dataset.num_areas();
  nn::ParameterStore store;
  util::Rng rng(11);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  std::vector<feature::ModelInput> inputs;
  for (size_t i = 0; i < 64; ++i) {
    inputs.push_back(f.assembler->AssembleAdvanced(f.items[i % f.items.size()]));
  }
  core::Batch batch =
      core::MakeBatch(core::VectorSource(inputs), 0, inputs.size());
  nn::Adam adam;
  nn::Graph g(&rng);
  for (auto _ : state) {
    g.Clear();
    g.set_training(true);
    nn::NodeId pred = model.Forward(&g, batch);
    nn::NodeId loss = g.MseLoss(pred, batch.target);
    store.ZeroGrads();
    g.Backward(loss);
    adam.Step(&store);
    benchmark::DoNotOptimize(g.value(loss).at(0, 0));
  }
}
BENCHMARK(BM_DeepSDTrainStepReused)->Unit(benchmark::kMillisecond);

void BM_DeepSDEvalForwardReused(benchmark::State& state) {
  // The serving forward's unit: one advanced-model eval forward over
  // range(0) rows on a long-lived graph, no loss and no backward. With
  // range(1) = 1 the parameters come from a raw-fp32 DSAR1 artifact packed
  // from the same store and opened as a read-only mapping, the way a
  // served model binds them; with 0, from the in-memory store.
  MicroFixtures& f = MicroFixtures::Get();
  const int rows = static_cast<int>(state.range(0));
  core::DeepSDConfig config;
  config.num_areas = f.dataset.num_areas();
  nn::ParameterStore store;
  util::Rng rng(11);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kAdvanced, &store,
                          &rng);
  std::shared_ptr<const store::StoredModel> stored;
  if (state.range(1) == 1) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_micro_eval_forward." + std::to_string(::getpid()) + ".dsar"))
            .string();
    util::Status s = store::PackModelArtifact(model, store, nullptr,
                                              store::PackOptions(), path);
    if (s.ok()) s = store::StoredModel::Open(path, &stored);
    std::remove(path.c_str());  // the mapping outlives the directory entry
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  const core::DeepSDModel& served = stored ? stored->model() : model;
  std::vector<feature::ModelInput> inputs;
  for (int i = 0; i < rows; ++i) {
    inputs.push_back(f.assembler->AssembleAdvanced(
        f.items[static_cast<size_t>(i) % f.items.size()]));
  }
  core::Batch batch =
      core::MakeBatch(core::VectorSource(inputs), 0, inputs.size());
  nn::Graph g;
  g.set_training(false);
  for (auto _ : state) {
    g.Clear();
    nn::NodeId pred = served.Forward(&g, batch);
    benchmark::DoNotOptimize(g.value(pred).data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DeepSDEvalForwardReused)
    ->ArgsProduct({{16, 500}, {0, 1}})
    ->ArgNames({"rows", "mapped"})
    ->Unit(benchmark::kMicrosecond);

/// Registry shaped like the serving process: a mix of counters, gauges and
/// latency histograms at the cardinality deepsd_simulate actually reaches.
obs::MetricsRegistry* MakeTelemetryRegistry(int metrics_per_kind) {
  auto* reg = new obs::MetricsRegistry();
  util::Rng rng(17);
  for (int i = 0; i < metrics_per_kind; ++i) {
    obs::Counter* c = reg->GetCounter("bench/counter_" + std::to_string(i));
    c->Inc(static_cast<uint64_t>(rng.Uniform(0, 1e6)));
    reg->GetGauge("bench/gauge_" + std::to_string(i))
        ->Set(rng.Uniform(0, 100));
    obs::Histogram* h = reg->GetHistogram("bench/histo_" + std::to_string(i));
    for (int k = 0; k < 256; ++k) h->Observe(rng.Uniform(1, 1e5));
  }
  return reg;
}

void BM_TimelineScrape(benchmark::State& state) {
  // One SampleNow() against a serving-sized registry: snapshot + counter
  // delta bookkeeping + ring push. This is the per-second cost the
  // background recorder adds while serving.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::MetricsRegistry* reg =
      MakeTelemetryRegistry(static_cast<int>(state.range(0)));
  obs::TimelineConfig config;
  config.capacity = 128;
  obs::TimelineRecorder recorder(config, reg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.SampleNow());
  }
  obs::SetEnabled(was_enabled);
}
BENCHMARK(BM_TimelineScrape)->Arg(16)->Arg(64)->ArgNames({"per_kind"});

void BM_OpenMetricsEncode(benchmark::State& state) {
  // Snapshot -> Prometheus text: the /metrics handler body per scrape.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::MetricsRegistry* reg =
      MakeTelemetryRegistry(static_cast<int>(state.range(0)));
  const std::vector<obs::MetricSnapshot> snapshot = reg->Snapshot();
  for (auto _ : state) {
    std::string text = obs::ToOpenMetrics(snapshot);
    benchmark::DoNotOptimize(text.data());
    state.counters["bytes"] = static_cast<double>(text.size());
  }
  obs::SetEnabled(was_enabled);
}
BENCHMARK(BM_OpenMetricsEncode)->Arg(16)->Arg(64)->ArgNames({"per_kind"});

void BM_MetricsHotPathDisabled(benchmark::State& state) {
  // The telemetry-off acceptance check: with obs disabled, the per-request
  // instrumentation (counter inc + gauge set + histogram observe) must cost
  // a handful of branch-predicted loads, i.e. stay within noise of zero.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h(obs::Histogram::LatencyUsBounds());
  for (auto _ : state) {
    c.Inc();
    g.Set(1.0);
    h.Observe(42.0);
    benchmark::DoNotOptimize(c);
  }
  obs::SetEnabled(was_enabled);
}
BENCHMARK(BM_MetricsHotPathDisabled);

}  // namespace
}  // namespace deepsd
