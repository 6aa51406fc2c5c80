// Model-store gates (docs/model_store.md): the mmap'd DSAR1 artifact must
// actually deliver the three properties the store exists for, at a
// 1000-area city scale:
//
//   1. Open latency: ModelStore::Open (mmap + header/TOC validation, the
//      O(mmap) path replicas take on a shared mapping) must be >= 20x
//      faster than building a private in-memory model (construct a
//      DeepSDModel + CopyFrom a StoredModel opened from the compressed
//      artifact). StoredModel::Open of the raw artifact — the full bind
//      including every section CRC and the finiteness scan — must stay
//      within 0.7x of that copy load's speed (it never decompresses or
//      copies raw tensors, but pays the same structure construction).
//   2. Replica memory: resident growth of N replicas opened from the
//      artifact must be sublinear in N (the file pages are shared), gated
//      against N private in-memory copies that keep their gradients, as a
//      trainable model does. Raw tensors must bind as zero-copy views, not
//      owned copies.
//   3. Bitwise identity: predictions served from the artifacts must be
//      bit-identical to the in-memory model they were packed from — the
//      raw artifact under the default kernels AND the int8 artifact under
//      DEEPSD_KERNEL=quant.
//
// Swap-under-load lives in `deepsd_simulate --swap` (docs/model_store.md).
//
//   bench_model_store [--areas=1000] [--json=BENCH_store.json]
//
// Exit status is 0 only if every gate holds.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "feature/feature_assembler.h"
#include "nn/kernels.h"
#include "nn/parameter.h"
#include "store/model_store.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "util/cli.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace deepsd {
namespace {

size_t ResidentBytes() {
  // Return freed arena pages to the OS first: model construction allocates
  // transient init storage that view-binding immediately frees, and a
  // malloc high-water mark would otherwise masquerade as residency.
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/// The 1000-area serving model: paper structure, embeddings widened so the
/// artifact is multiple MB and the replica-memory measurement sits well
/// above page noise.
core::DeepSDConfig BenchConfig(int areas) {
  core::DeepSDConfig config;
  config.num_areas = areas;
  config.area_embed_dim = 32;
  config.time_embed_dim = 64;
  config.hidden1 = 128;
  config.hidden2 = 64;
  return config;
}

/// Deterministic pseudo-live inputs for the basic model (the bench has no
/// dataset; input *values* only need to be finite and varied).
std::vector<feature::ModelInput> MakeInputs(const core::DeepSDConfig& config,
                                            size_t count, uint64_t seed) {
  util::Rng rng(seed);
  const int L = config.window;
  std::vector<feature::ModelInput> inputs(count);
  for (size_t i = 0; i < count; ++i) {
    feature::ModelInput& in = inputs[i];
    in.area_id = static_cast<int>(rng.UniformInt(config.num_areas));
    in.time_id = static_cast<int>(rng.UniformInt(config.time_vocab));
    in.week_id = static_cast<int>(rng.UniformInt(7));
    in.v_sd.resize(static_cast<size_t>(2 * L));
    for (float& v : in.v_sd) v = rng.Uniform(0.0f, 5.0f);
    if (config.use_weather) {
      in.weather_types.resize(static_cast<size_t>(L));
      for (int& w : in.weather_types) {
        w = static_cast<int>(rng.UniformInt(config.weather_vocab));
      }
      in.weather_reals.resize(static_cast<size_t>(2 * L));
      for (float& v : in.weather_reals) v = rng.Uniform(-1.0f, 1.0f);
    }
    if (config.use_traffic) {
      in.v_tc.resize(static_cast<size_t>(4 * L));
      for (float& v : in.v_tc) v = rng.Uniform(0.0f, 3.0f);
    }
  }
  return inputs;
}

struct InMemoryModel {
  std::unique_ptr<nn::ParameterStore> store;
  std::unique_ptr<core::DeepSDModel> model;
};

InMemoryModel BuildModel(const core::DeepSDConfig& config, uint64_t seed) {
  InMemoryModel m;
  m.store = std::make_unique<nn::ParameterStore>();
  util::Rng rng(seed);
  m.model = std::make_unique<core::DeepSDModel>(
      config, core::DeepSDModel::Mode::kBasic, m.store.get(), &rng);
  // GEMM calibration as a trained serving model would carry it (the
  // trainer's calibration pass covers FC weights, never embedding tables);
  // this is what routes those tensors through the int8 encoding under
  // kQuant.
  for (const auto& p : m.store->parameters()) {
    const std::string& n = p->name;
    if (n.size() > 2 && n.compare(n.size() - 2, 2, ".w") == 0) {
      p->act_absmax = 1.0f;
    }
  }
  return m;
}

/// A private, trainable in-memory copy of an artifact: construct the model
/// and CopyFrom a StoredModel opened from `path` — the load a process
/// without the shared mapping would pay.
InMemoryModel CopyLoad(const core::DeepSDConfig& config,
                       const std::string& path) {
  InMemoryModel m;
  m.store = std::make_unique<nn::ParameterStore>();
  util::Rng rng(1);
  m.model = std::make_unique<core::DeepSDModel>(
      config, core::DeepSDModel::Mode::kBasic, m.store.get(), &rng);
  std::shared_ptr<const store::StoredModel> source;
  if (!store::StoredModel::Open(path, &source).ok() ||
      m.store->CopyFrom(source->params()) == 0) {
    std::fprintf(stderr, "FATAL: copy load of %s failed\n", path.c_str());
    std::exit(1);
  }
  return m;
}

double MedianUs(std::vector<double> us) {
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown({"areas", "json", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: bench_model_store [--areas=1000] "
                 "[--json=BENCH_store.json]\n",
                 st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }
  const int areas = static_cast<int>(cli.GetInt("areas", 1000));
  const std::string json_path =
      cli.Has("json") ? cli.GetString("json") : "BENCH_store.json";

  const std::string compressed_artifact =
      "/tmp/bench_store_model_compressed.dsar";
  const std::string raw_artifact = "/tmp/bench_store_model.dsar";
  const std::string quant_artifact = "/tmp/bench_store_model_quant.dsar";

  const core::DeepSDConfig config = BenchConfig(areas);
  std::printf("building %d-area model...\n", areas);
  InMemoryModel built = BuildModel(config, /*seed=*/21);

  auto pack = [&](const InMemoryModel& m, const std::string& path,
                  store::ParamEncoding enc, const std::string& id) {
    store::PackOptions options;
    options.version_id = id;
    options.encoding = enc;
    util::Status s = store::PackModelArtifact(*m.model, *m.store, nullptr,
                                              options, path);
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: pack %s: %s\n", path.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
  };
  pack(built, raw_artifact, store::ParamEncoding::kRaw, "bench-v1");
  pack(built, compressed_artifact, store::ParamEncoding::kCompressed,
       "bench-v1c");
  pack(built, quant_artifact, store::ParamEncoding::kQuant, "bench-v1q");

  // --- 1. Open latency --------------------------------------------------
  std::printf("timing open vs copy load...\n");
  constexpr int kTrials = 9;
  std::vector<double> copy_us, map_open_us, bind_open_us;
  for (int i = 0; i < kTrials; ++i) {
    int64_t t0 = util::NowSteadyUs();
    InMemoryModel copied = CopyLoad(config, compressed_artifact);
    copy_us.push_back(static_cast<double>(util::NowSteadyUs() - t0));

    t0 = util::NowSteadyUs();
    std::shared_ptr<const store::ModelStore> ms;
    st = store::ModelStore::Open(raw_artifact, &ms);
    map_open_us.push_back(static_cast<double>(util::NowSteadyUs() - t0));
    if (!st.ok()) {
      std::fprintf(stderr, "FATAL: mmap open: %s\n", st.ToString().c_str());
      return 1;
    }

    t0 = util::NowSteadyUs();
    std::shared_ptr<const store::StoredModel> sm;
    st = store::StoredModel::Open(raw_artifact, &sm);
    bind_open_us.push_back(static_cast<double>(util::NowSteadyUs() - t0));
    if (!st.ok()) {
      std::fprintf(stderr, "FATAL: bind open: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const double copy_med = MedianUs(copy_us);
  const double map_med = MedianUs(map_open_us);
  const double bind_med = MedianUs(bind_open_us);
  const double map_speedup = map_med > 0 ? copy_med / map_med : 0.0;
  const double bind_speedup = bind_med > 0 ? copy_med / bind_med : 0.0;
  // The 20x gate is on the mmap open — the path N-replica serving takes
  // when sharing one StoredModel. The full bind (model construction + CRC
  // + finiteness scan) is dominated by the same structure-construction
  // cost the copy load pays, so it is gated only against catastrophic
  // regression: it skips the decompress-and-copy, it must never cost
  // meaningfully more than the load it replaces.
  const bool open_ok = map_speedup >= 20.0 && bind_speedup >= 0.7;
  std::printf("  copy load %.0f us  mmap open %.0f us (%.1fx)  "
              "full bind %.0f us (%.1fx)\n",
              copy_med, map_med, map_speedup, bind_med, bind_speedup);

  // --- 2. Replica memory ------------------------------------------------
  std::printf("measuring %d-replica resident growth...\n", 8);
  constexpr int kReplicas = 8;
  size_t mapped_delta = 0, copied_delta = 0;
  bool zero_copy_ok = true;
  {
    const size_t rss0 = ResidentBytes();
    std::vector<std::shared_ptr<const store::StoredModel>> replicas;
    for (int i = 0; i < kReplicas; ++i) {
      std::shared_ptr<const store::StoredModel> sm;
      st = store::StoredModel::Open(raw_artifact, &sm);
      if (!st.ok()) return 1;
      replicas.push_back(std::move(sm));
    }
    const size_t rss1 = ResidentBytes();
    mapped_delta = rss1 > rss0 ? rss1 - rss0 : 0;
    // Raw tensors must be views into the mapping, not owned copies —
    // that is the mechanism behind the sharing being measured.
    for (const auto& p : replicas[0]->params().parameters()) {
      zero_copy_ok = zero_copy_ok && p->value.is_view();
    }
  }
  {
    const size_t rss0 = ResidentBytes();
    std::vector<InMemoryModel> copies;
    for (int i = 0; i < kReplicas; ++i) {
      copies.push_back(CopyLoad(config, compressed_artifact));
    }
    const size_t rss1 = ResidentBytes();
    copied_delta = rss1 > rss0 ? rss1 - rss0 : 0;
  }
  const double replica_ratio =
      copied_delta > 0
          ? static_cast<double>(mapped_delta) / static_cast<double>(copied_delta)
          : 1.0;
  const bool replica_ok = zero_copy_ok && copied_delta > 0 &&
                          replica_ratio <= 0.6;
  std::printf("  %d mapped replicas +%zu KB, %d private copies +%zu KB "
              "(ratio %.2f, zero-copy %s)\n",
              kReplicas, mapped_delta / 1024, kReplicas, copied_delta / 1024,
              replica_ratio, zero_copy_ok ? "yes" : "NO");

  // --- 3. Bitwise identity ----------------------------------------------
  std::printf("checking artifact/in-memory prediction identity...\n");
  const std::vector<feature::ModelInput> inputs =
      MakeInputs(config, 256, /*seed=*/5);
  using KM = nn::kernels::KernelMode;
  auto predict = [&](const core::DeepSDModel& model, KM mode) {
    nn::kernels::ScopedKernelMode guard(mode);
    return model.Predict(inputs, 16);
  };

  std::shared_ptr<const store::StoredModel> stored_raw, stored_quant;
  if (!store::StoredModel::Open(raw_artifact, &stored_raw).ok() ||
      !store::StoredModel::Open(quant_artifact, &stored_quant).ok()) {
    std::fprintf(stderr, "FATAL: artifact reopen failed\n");
    return 1;
  }
  const std::vector<float> out_mem_fp32 = predict(*built.model, KM::kBlocked);
  const std::vector<float> out_store_fp32 =
      predict(stored_raw->model(), KM::kBlocked);
  const std::vector<float> out_mem_quant = predict(*built.model, KM::kQuant);
  const std::vector<float> out_store_quant =
      predict(stored_quant->model(), KM::kQuant);
  const bool fp32_identical = BitIdentical(out_mem_fp32, out_store_fp32);
  const bool quant_identical = BitIdentical(out_mem_quant, out_store_quant);
  const bool identity_ok = fp32_identical && quant_identical;
  std::printf("  fp32 %s  quant %s\n",
              fp32_identical ? "bit-identical" : "DIFFERS",
              quant_identical ? "bit-identical" : "DIFFERS");

  // --- JSON + verdict ---------------------------------------------------
  std::string json = "{\n";
  json += util::StrFormat(
      "  \"open\": {\"areas\": %d, \"copy_us\": %.0f, \"mmap_open_us\": "
      "%.0f, \"mmap_speedup\": %.1f, \"bind_us\": %.0f, \"bind_speedup\": "
      "%.1f, \"ok\": %s},\n",
      areas, copy_med, map_med, map_speedup, bind_med, bind_speedup,
      open_ok ? "true" : "false");
  json += util::StrFormat(
      "  \"replicas\": {\"n\": %d, \"mapped_delta_bytes\": %zu, "
      "\"copied_delta_bytes\": %zu, \"ratio\": %.3f, \"zero_copy\": %s, "
      "\"ok\": %s},\n",
      kReplicas, mapped_delta, copied_delta, replica_ratio,
      zero_copy_ok ? "true" : "false", replica_ok ? "true" : "false");
  json += util::StrFormat(
      "  \"identity\": {\"fp32_bit_identical\": %s, "
      "\"quant_bit_identical\": %s, \"ok\": %s},\n",
      fp32_identical ? "true" : "false", quant_identical ? "true" : "false",
      identity_ok ? "true" : "false");
  const bool all_ok = open_ok && replica_ok && identity_ok;
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
  if (!open_ok) fail("mmap open not fast enough vs copy load");
  if (!replica_ok) fail("replica resident growth not sublinear / not views");
  if (!identity_ok) fail("artifact predictions differ from in-memory load");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::Main(argc, argv); }
