// Int8 inference and compressed-storage gates (docs/performance.md):
//
//   1. Accuracy: train DeepSD once in fp32, evaluate the same trained
//      model under DEEPSD_KERNEL=blocked (fp32) and quant. MAE/RMSE may
//      drift at most --tolerance (default 2%) relative, and the Table II
//      method ordering (Average, Seasonal EWMA, Basic, Advanced by RMSE)
//      must be identical under both kernel modes.
//   2. Serving artifact: the int8 DSAR1 model artifact must be >= 2x
//      smaller than the raw DSAR1 artifact.
//   3. Checkpoint: the v3 bit-packed/float-block checkpoint must be
//      strictly smaller than its raw-tensor equivalent. The ratio is
//      reported, not held to 2x: resume is bitwise (lossless), and trained
//      fp32 mantissas are entropy-dense, so the checkpoint's headroom is
//      structurally smaller than the lossy serving artifacts'.
//   4. Round-trips: EA predictions served from an opened artifact's "ea"
//      section and quant predictions served from the opened int8 artifact
//      must be bit-identical to the in-memory ones.
//   5. Throughput: int8 GEMM GF/s at 128x128, gated only against
//      catastrophic regression (>= 0.2x blocked) to stay CI-stable.
//
//   bench_quant [--tolerance=0.02] [--json=BENCH_quant.json]
//
// Exit status is 0 only if every gate holds.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "nn/kernels.h"
#include "nn/parameter.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "util/byte_io.h"
#include "util/cli.h"

namespace deepsd {
namespace {

size_t FileSize(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Relative drift of `quant` against `fp32` (0 when both are 0).
double RelDelta(double fp32, double quant) {
  return fp32 != 0.0 ? std::fabs(quant - fp32) / std::fabs(fp32)
                     : std::fabs(quant);
}

/// Method names sorted by ascending RMSE — the Table II ordering.
std::vector<std::string> Ordering(
    const std::vector<std::pair<std::string, double>>& rmse) {
  std::vector<std::pair<std::string, double>> sorted = rmse;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  std::vector<std::string> names;
  for (const auto& [name, r] : sorted) names.push_back(name);
  return names;
}

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " < ";
    out += n;
  }
  return out;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// What the checkpoint's bulk content costs with the pre-v3 raw encodings
/// (fp32 tensors, u64-per-entry order), measured by re-encoding; the
/// fixed sections (config, history, reference) are identical across
/// versions and excluded from both sides of the ratio.
struct CheckpointBulk {
  size_t raw = 0;
  size_t packed = 0;
};

void AddTensors(const std::vector<nn::NamedTensor>& tensors,
                const std::vector<nn::NamedTensor>* refs,
                CheckpointBulk* bulk) {
  for (const nn::NamedTensor& nt : tensors) {
    bulk->raw += nt.value.size() * sizeof(float);
    const float* ref = nullptr;
    if (refs != nullptr) {
      for (const nn::NamedTensor& cand : *refs) {
        if (cand.name == nt.name &&
            cand.value.rows() == nt.value.rows() &&
            cand.value.cols() == nt.value.cols()) {
          ref = cand.value.data();
          break;
        }
      }
    }
    util::ByteWriter w;
    util::PutFloatBlock(&w, nt.value.data(), nt.value.size(), ref);
    bulk->packed += w.size();
  }
}

CheckpointBulk MeasureCheckpointBulk(const core::TrainerCheckpoint& ck) {
  CheckpointBulk bulk;
  bulk.raw += 8 + ck.order.size() * sizeof(uint64_t);
  uint64_t max = 0;
  for (uint64_t v : ck.order) max = std::max(max, v);
  bulk.packed +=
      2 + util::BitPackedBytes(ck.order.size(), util::BitWidth64(max));
  AddTensors(ck.params, nullptr, &bulk);
  AddTensors(ck.adam_m, &ck.params, &bulk);
  AddTensors(ck.adam_v, &ck.params, &bulk);
  AddTensors(ck.sgd_velocity, &ck.params, &bulk);
  for (const core::TrainerCheckpoint::BestEntry& e : ck.best) {
    AddTensors(e.params, &ck.params, &bulk);
  }
  return bulk;
}

struct QuantThroughput {
  double blocked_gflops = 0;
  double quant_gflops = 0;
};

QuantThroughput MeasureThroughput() {
  constexpr int n = 128;
  constexpr int reps = 60;
  util::Rng rng(17);
  nn::Tensor a(n, n), w(n, n), y(n, n);
  for (nn::Tensor* t : {&a, &w}) {
    for (float& v : t->flat()) v = rng.Uniform(-1.0f, 1.0f);
  }
  nn::kernels::QuantizedWeights qw;
  nn::kernels::QuantizeWeights(w.data(), n, n, &qw);
  const double flops = 2.0 * n * static_cast<double>(n) * n * reps;

  nn::kernels::ScopedKernelMode guard(nn::kernels::KernelMode::kBlocked);
  auto blocked = [&] { nn::MatMul(a, w, &y); };
  auto quant = [&] {
    nn::kernels::GemmQuant(a.data(), qw, y.data(), n, n, n, 0.0f, false);
  };
  auto time_block = [&](auto&& body) {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) body();
    return NowSeconds() - t0;
  };
  for (int i = 0; i < 5; ++i) {
    blocked();
    quant();
  }
  // Alternate the kernels block by block and keep each one's best, so a
  // burst of host noise lands on both sides of the ratio alike.
  double best_blocked = 1e30, best_quant = 1e30;
  for (int block = 0; block < 3; ++block) {
    best_blocked = std::min(best_blocked, time_block(blocked));
    best_quant = std::min(best_quant, time_block(quant));
  }
  QuantThroughput r;
  r.blocked_gflops = flops / best_blocked / 1e9;
  r.quant_gflops = flops / best_quant / 1e9;
  return r;
}

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown({"tolerance", "json", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: bench_quant [--tolerance=0.02] "
                 "[--json=BENCH_quant.json]\n",
                 st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }
  const double tolerance = cli.GetDouble("tolerance", 0.02);
  const std::string json_path =
      cli.Has("json") ? cli.GetString("json") : "BENCH_quant.json";

  eval::Experiment exp(eval::GetScaleFromEnv(), /*seed=*/42);
  eval::PrintExperimentBanner(exp, "Int8 quantized inference gates");
  std::vector<float> targets = exp.TestTargets();

  std::printf("running baselines...\n");
  std::vector<float> ea_preds = bench::RunEmpiricalAverage(exp);
  eval::Metrics ea = eval::ComputeMetrics(ea_preds, targets);
  eval::Metrics ewma =
      eval::ComputeMetrics(bench::RunSeasonalEwma(exp), targets);

  std::printf("training Basic DeepSD (fp32)...\n");
  auto basic = exp.TrainDeepSD(core::DeepSDModel::Mode::kBasic,
                               exp.ModelConfig(), /*seed=*/7);
  std::printf("training Advanced DeepSD (fp32)...\n");
  auto advanced = exp.TrainDeepSD(core::DeepSDModel::Mode::kAdvanced,
                                  exp.ModelConfig(), /*seed=*/7);

  // fp32 vs quant predictions of the *same* trained models. fp32 goes
  // through the blocked kernels (the production default); quant flips only
  // the global kernel switch, exactly as a serving replica would.
  auto predict = [&](const auto& trained, bool adv,
                     nn::kernels::KernelMode mode) {
    nn::kernels::ScopedKernelMode guard(mode);
    core::AssemblerSource source = exp.TestSource(adv);
    return trained.model->Predict(source);
  };
  using KM = nn::kernels::KernelMode;
  std::vector<float> basic_fp32 = predict(basic, false, KM::kBlocked);
  std::vector<float> basic_quant = predict(basic, false, KM::kQuant);
  std::vector<float> adv_fp32 = predict(advanced, true, KM::kBlocked);
  std::vector<float> adv_quant = predict(advanced, true, KM::kQuant);

  eval::Metrics mb32 = eval::ComputeMetrics(basic_fp32, targets);
  eval::Metrics mbq = eval::ComputeMetrics(basic_quant, targets);
  eval::Metrics ma32 = eval::ComputeMetrics(adv_fp32, targets);
  eval::Metrics maq = eval::ComputeMetrics(adv_quant, targets);

  const double basic_mae_delta = RelDelta(mb32.mae, mbq.mae);
  const double basic_rmse_delta = RelDelta(mb32.rmse, mbq.rmse);
  const double adv_mae_delta = RelDelta(ma32.mae, maq.mae);
  const double adv_rmse_delta = RelDelta(ma32.rmse, maq.rmse);
  const bool accuracy_ok =
      basic_mae_delta <= tolerance && basic_rmse_delta <= tolerance &&
      adv_mae_delta <= tolerance && adv_rmse_delta <= tolerance;

  std::vector<std::string> order_fp32 = Ordering({{"Average", ea.rmse},
                                                  {"EWMA", ewma.rmse},
                                                  {"Basic", mb32.rmse},
                                                  {"Advanced", ma32.rmse}});
  std::vector<std::string> order_quant = Ordering({{"Average", ea.rmse},
                                                   {"EWMA", ewma.rmse},
                                                   {"Basic", mbq.rmse},
                                                   {"Advanced", maq.rmse}});
  const bool ordering_ok = order_fp32 == order_quant;

  std::printf("  fp32:  basic MAE=%.3f RMSE=%.3f  advanced MAE=%.3f "
              "RMSE=%.3f\n",
              mb32.mae, mb32.rmse, ma32.mae, ma32.rmse);
  std::printf("  quant: basic MAE=%.3f RMSE=%.3f  advanced MAE=%.3f "
              "RMSE=%.3f\n",
              mbq.mae, mbq.rmse, maq.mae, maq.rmse);
  std::printf("  ordering fp32:  %s\n", Join(order_fp32).c_str());
  std::printf("  ordering quant: %s\n", Join(order_quant).c_str());

  // --- Serialized sizes -------------------------------------------------
  std::printf("measuring serialized sizes...\n");
  baselines::EmpiricalAverage ea_model;
  ea_model.Fit(exp.train_items());

  const std::string model_raw_path = "/tmp/bench_quant_model_raw.dsar";
  const std::string model_quant_path = "/tmp/bench_quant_model_quant.dsar";
  const std::string model_ea_path = "/tmp/bench_quant_model_ea.dsar";
  auto pack = [&](const std::string& path, store::ParamEncoding encoding,
                  const baselines::EmpiricalAverage* baseline = nullptr) {
    store::PackOptions options;
    options.encoding = encoding;
    return store::PackModelArtifact(*advanced.model, *advanced.store,
                                    baseline, options, path)
        .ok();
  };

  // EA round-trip: the baseline served from the artifact's "ea" section
  // must reproduce the fitted baseline's exact predictions.
  std::shared_ptr<const store::StoredModel> stored_ea;
  const bool ea_roundtrip_ok =
      pack(model_ea_path, store::ParamEncoding::kRaw, &ea_model) &&
      store::StoredModel::Open(model_ea_path, &stored_ea).ok() &&
      stored_ea->baseline() != nullptr &&
      BitIdentical(stored_ea->baseline()->Predict(exp.test_items()),
                   ea_preds);

  const bool save_ok = pack(model_raw_path, store::ParamEncoding::kRaw) &&
                       pack(model_quant_path, store::ParamEncoding::kQuant);
  const size_t model_raw_bytes = FileSize(model_raw_path);
  const size_t model_quant_bytes = FileSize(model_quant_path);
  const double model_ratio =
      model_quant_bytes > 0
          ? static_cast<double>(model_raw_bytes) / model_quant_bytes
          : 0.0;

  // Serving from the int8 artifact must reproduce the in-memory quant
  // predictions bitwise: opening it installs the stored codes directly.
  bool quant_file_serving_ok = false;
  std::shared_ptr<const store::StoredModel> stored_quant;
  if (save_ok &&
      store::StoredModel::Open(model_quant_path, &stored_quant).ok()) {
    nn::kernels::ScopedKernelMode guard(KM::kQuant);
    core::AssemblerSource source = exp.TestSource(true);
    quant_file_serving_ok =
        BitIdentical(stored_quant->model().Predict(source), adv_quant);
  }

  // --- Checkpoint size --------------------------------------------------
  std::printf("training Basic DeepSD with checkpointing...\n");
  const std::string ck_path = "/tmp/bench_quant_ck.bin";
  {
    util::Rng rng(7);
    nn::ParameterStore store;
    core::DeepSDModel model(exp.ModelConfig(),
                            core::DeepSDModel::Mode::kBasic, &store, &rng);
    core::TrainConfig tc = exp.TrainerConfig(/*seed=*/7);
    tc.verbose = false;
    tc.checkpoint_path = ck_path;
    core::AssemblerSource train_source = exp.TrainSource(false);
    core::AssemblerSource test_source = exp.TestSource(false);
    core::Trainer(tc).Train(&model, &store, train_source, test_source);
  }
  core::TrainerCheckpoint ck;
  bool ck_ok = core::LoadCheckpoint(ck_path, &ck).ok();
  CheckpointBulk bulk;
  size_t ck_file_bytes = 0, ck_raw_equiv = 0;
  double ck_ratio = 0.0;
  if (ck_ok) {
    bulk = MeasureCheckpointBulk(ck);
    ck_file_bytes = FileSize(ck_path);
    ck_raw_equiv = ck_file_bytes - bulk.packed + bulk.raw;
    ck_ratio = static_cast<double>(ck_raw_equiv) / ck_file_bytes;
  }

  std::printf("  model: DSAR1 raw %zu B, DSAR1 quant %zu B (%.2fx)\n",
              model_raw_bytes, model_quant_bytes, model_ratio);
  std::printf("  checkpoint: v3 %zu B vs raw-equivalent %zu B (%.2fx)\n",
              ck_file_bytes, ck_raw_equiv, ck_ratio);

  // --- Throughput -------------------------------------------------------
  QuantThroughput tp = MeasureThroughput();
  std::printf("  gemm 128: blocked %.2f GF/s, int8 %.2f GF/s\n",
              tp.blocked_gflops, tp.quant_gflops);

  const bool model_size_ok = model_ratio >= 2.0;
  const bool ck_size_ok = ck_ok && ck_ratio > 1.0;
  const bool throughput_ok = tp.quant_gflops >= 0.2 * tp.blocked_gflops;

  std::string json = "{\n";
  json += util::StrFormat(
      "  \"accuracy\": {\"tolerance\": %.4f, \"basic_mae_delta\": %.5f, "
      "\"basic_rmse_delta\": %.5f, \"advanced_mae_delta\": %.5f, "
      "\"advanced_rmse_delta\": %.5f, \"ok\": %s},\n",
      tolerance, basic_mae_delta, basic_rmse_delta, adv_mae_delta,
      adv_rmse_delta, accuracy_ok ? "true" : "false");
  json += util::StrFormat(
      "  \"ordering\": {\"fp32\": \"%s\", \"quant\": \"%s\", \"ok\": %s},\n",
      Join(order_fp32).c_str(), Join(order_quant).c_str(),
      ordering_ok ? "true" : "false");
  json += util::StrFormat(
      "  \"sizes\": {\"model_raw\": %zu, \"model_quant\": %zu, "
      "\"model_ratio\": %.2f, \"checkpoint_v3\": %zu, "
      "\"checkpoint_raw_equiv\": %zu, \"checkpoint_ratio\": %.3f},\n",
      model_raw_bytes, model_quant_bytes, model_ratio, ck_file_bytes,
      ck_raw_equiv, ck_ratio);
  json += util::StrFormat(
      "  \"roundtrip\": {\"ea_bit_identical\": %s, "
      "\"quant_file_serving_bit_identical\": %s},\n",
      ea_roundtrip_ok ? "true" : "false",
      quant_file_serving_ok ? "true" : "false");
  json += util::StrFormat(
      "  \"throughput\": {\"blocked_gflops\": %.2f, \"quant_gflops\": "
      "%.2f},\n",
      tp.blocked_gflops, tp.quant_gflops);
  const bool all_ok = accuracy_ok && ordering_ok && model_size_ok &&
                      ck_size_ok && ea_roundtrip_ok &&
                      quant_file_serving_ok && throughput_ok;
  json += util::StrFormat("  \"all_gates_ok\": %s\n}\n",
                          all_ok ? "true" : "false");

  std::printf("\n%s", json.c_str());
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  auto fail = [](const char* what) {
    std::fprintf(stderr, "FAIL: %s\n", what);
  };
  if (!accuracy_ok) fail("quant MAE/RMSE drift exceeds tolerance");
  if (!ordering_ok) fail("Table II method ordering flipped under quant");
  if (!model_size_ok) {
    fail("int8 model artifact is not >= 2x smaller than the raw one");
  }
  if (!ck_size_ok) fail("v3 checkpoint not smaller than raw equivalent");
  if (!ea_roundtrip_ok) {
    fail("EA served from the artifact differs from the fitted baseline");
  }
  if (!quant_file_serving_ok) {
    fail("serving from int8 artifact differs from in-memory quant");
  }
  if (!throughput_ok) fail("int8 GEMM catastrophically slower than blocked");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::Main(argc, argv); }
