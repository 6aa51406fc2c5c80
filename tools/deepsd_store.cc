// deepsd_store: pack, verify, inspect, and diff DSAR1 model-store
// artifacts (docs/model_store.md) — the mmap-able serving format behind
// zero-copy replica sharing and hot swap.
//
//   deepsd_store pack --params=model.bin --out=model.dsar
//                [--encoding=raw|compressed|quant] [--version_id=tag]
//                [--ea --data=city.bin [--ref_days=N]]
//   deepsd_store pack --checkpoint=ck.bin --data=city.bin --out=model.dsar
//                [--mode=basic|advanced] [--no_weather] [--no_traffic]
//                [same encoding / version / ea flags]
//   deepsd_store verify model.dsar       # exit 0 iff fully valid
//   deepsd_store inspect model.dsar      # header, TOC, manifest, tensors
//   deepsd_store diff a.dsar b.dsar      # exit 0 same, 1 differ, 2 error
//
// pack --params repacks an existing artifact (as deepsd_train writes it),
// e.g. to change its encoding or ship the tier-3 baseline with --ea; the
// model structure comes from the artifact's manifest. A checkpoint carries
// no model config, so pack --checkpoint rebuilds the structure from the
// dataset and the --mode/--no_weather/--no_traffic flags.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/checkpoint.h"
#include "data/serialize.h"
#include "nn/parameter.h"
#include "store/model_store.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "util/cli.h"
#include "util/table_printer.h"

namespace {

using namespace deepsd;

int Usage(const util::Status& st) {
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  std::fprintf(
      stderr,
      "usage:\n"
      "  deepsd_store pack --params=model.bin --out=model.dsar "
      "[--encoding=raw|compressed|quant] [--version_id=tag] "
      "[--ea --data=city.bin [--ref_days=N]]\n"
      "  deepsd_store pack --checkpoint=ck.bin --data=city.bin "
      "--out=model.dsar [--mode=basic|advanced] [--no_weather] "
      "[--no_traffic] [--encoding=...] [--version_id=tag] [--ea] "
      "[--ref_days=N]\n"
      "  deepsd_store verify model.dsar\n"
      "  deepsd_store inspect model.dsar\n"
      "  deepsd_store diff a.dsar b.dsar\n");
  return 2;
}

int Fail(const char* what, const util::Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  return 1;
}

const char* EncodingName(store::TensorEncoding e) {
  switch (e) {
    case store::TensorEncoding::kRawF32: return "raw";
    case store::TensorEncoding::kCompressedF32: return "block";
    case store::TensorEncoding::kInt8: return "int8";
  }
  return "?";
}

std::string Bytes(size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", n);
  return buf;
}

std::string Ratio(size_t fp32, size_t stored) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx",
                stored > 0 ? static_cast<double>(fp32) / stored : 0.0);
  return buf;
}

const char* ModeName(core::DeepSDModel::Mode mode) {
  return mode == core::DeepSDModel::Mode::kAdvanced ? "advanced" : "basic";
}

int Pack(const util::CommandLine& cli) {
  const bool from_checkpoint = cli.Has("checkpoint");
  if (!cli.Has("out") || cli.Has("params") == from_checkpoint) {
    return Usage(util::Status::InvalidArgument(
        "pack needs --out and exactly one of --params / --checkpoint"));
  }
  if (!from_checkpoint &&
      (cli.Has("mode") || cli.Has("no_weather") || cli.Has("no_traffic"))) {
    return Usage(util::Status::InvalidArgument(
        "--mode/--no_weather/--no_traffic apply only to --checkpoint; an "
        "artifact's structure comes from its manifest"));
  }
  const bool with_ea = cli.GetBool("ea", false);
  if ((from_checkpoint || with_ea) && !cli.Has("data")) {
    return Usage(util::Status::InvalidArgument(
        "pack --checkpoint and pack --ea need --data"));
  }

  data::OrderDataset dataset;
  util::Status st = util::Status::OK();
  if (cli.Has("data")) {
    st = data::LoadDataset(cli.GetString("data"), &dataset);
    if (!st.ok()) return Fail("load dataset", st);
  }

  store::PackOptions options;
  options.version_id = cli.GetString("version_id", "unversioned");
  const std::string enc = cli.GetString("encoding", "raw");
  if (!store::ParseParamEncoding(enc, &options.encoding)) {
    return Usage(util::Status::InvalidArgument(
        "--encoding must be raw, compressed, or quant"));
  }

  // Optional tier-3 baseline packaged with the artifact, fitted on the
  // same reference window the serving FeatureAssembler would use.
  baselines::EmpiricalAverage ea;
  const baselines::EmpiricalAverage* ea_ptr = nullptr;
  if (with_ea) {
    const int ref_days = static_cast<int>(
        cli.GetInt("ref_days", dataset.num_days() * 2 / 3));
    ea.Fit(data::MakeTrainItems(dataset, 0, ref_days));
    ea_ptr = &ea;
  }

  const std::string out = cli.GetString("out");
  if (from_checkpoint) {
    core::TrainerCheckpoint ck;
    st = core::LoadCheckpoint(cli.GetString("checkpoint"), &ck);
    if (!st.ok()) return Fail("load checkpoint", st);
    core::DeepSDConfig config;
    config.num_areas = dataset.num_areas();
    config.use_weather =
        !cli.GetBool("no_weather", false) && dataset.has_weather();
    config.use_traffic =
        !cli.GetBool("no_traffic", false) && dataset.has_traffic();
    const core::DeepSDModel::Mode mode =
        cli.GetString("mode", "advanced") == "advanced"
            ? core::DeepSDModel::Mode::kAdvanced
            : core::DeepSDModel::Mode::kBasic;
    st = store::PackCheckpointArtifact(ck, config, mode, ea_ptr, options,
                                       out);
  } else {
    // The source stays mapped until the repack is written, so packing
    // over the input path is safe (the write is an atomic rename).
    std::shared_ptr<const store::StoredModel> source;
    st = store::StoredModel::Open(cli.GetString("params"), &source);
    if (!st.ok()) return Fail("load params", st);
    st = store::PackModelArtifact(source->model(), source->params(), ea_ptr,
                                  options, out);
  }
  if (!st.ok()) return Fail("pack", st);

  // Round-trip as proof of packaging: a pack that cannot be reopened is a
  // failure now, not at the swap that tries to serve it.
  std::shared_ptr<const store::StoredModel> reopened;
  st = store::StoredModel::Open(out, &reopened);
  if (!st.ok()) return Fail("reopen packed artifact", st);
  std::printf("packed %s  version_id %s  mode %s  encoding %s  ea %s\n",
              out.c_str(), reopened->version_id().c_str(),
              ModeName(reopened->manifest().mode), enc.c_str(),
              reopened->baseline() != nullptr ? "yes" : "no");
  return 0;
}

int Verify(const std::string& path) {
  std::shared_ptr<const store::ModelStore> ms;
  util::Status st = store::ModelStore::Open(path, &ms);
  if (!st.ok()) return Fail("open", st);
  st = ms->VerifyAll();
  if (!st.ok()) return Fail("section CRC", st);
  // Full bind: sections can be individually intact yet not describe a
  // servable model (missing tensor, bad manifest). verify means "a swap
  // to this artifact would succeed".
  std::shared_ptr<const store::StoredModel> sm;
  st = store::StoredModel::Open(path, &sm);
  if (!st.ok()) return Fail("bind", st);
  std::printf("%s: OK  (%zu sections, %zu bytes, version_id %s, "
              "%zu tensors)\n",
              path.c_str(), ms->section_count(), ms->file_size(),
              sm->version_id().c_str(), sm->params().parameters().size());
  return 0;
}

int Inspect(const std::string& path) {
  std::shared_ptr<const store::ModelStore> ms;
  util::Status st = store::ModelStore::Open(path, &ms);
  if (!st.ok()) return Fail("open", st);
  const store::FileHeader& h = ms->header();
  std::printf("%s: DSAR v%u (min reader v%u)  %zu bytes  page %u  "
              "%zu sections\n",
              path.c_str(), h.version, h.min_reader, ms->file_size(),
              h.page_size, ms->section_count());

  util::TablePrinter toc({"section", "offset", "bytes", "crc32"});
  for (size_t i = 0; i < ms->section_count(); ++i) {
    const store::SectionEntry& e = ms->entry(i);
    char off[32], len[32], crc[16];
    std::snprintf(off, sizeof(off), "%llu",
                  static_cast<unsigned long long>(e.offset));
    std::snprintf(len, sizeof(len), "%llu",
                  static_cast<unsigned long long>(e.length));
    std::snprintf(crc, sizeof(crc), "%08x", e.crc);
    toc.AddRow({store::SectionKindToString(e.kind), off, len, crc});
  }
  toc.Print();

  const char* data = nullptr;
  size_t size = 0;
  st = ms->Section(store::kSectionManifest, &data, &size);
  if (st.ok()) {
    store::Manifest m;
    st = store::DecodeManifest(data, size, &m);
    if (!st.ok()) return Fail("manifest", st);
    const core::DeepSDConfig& c = m.config;
    std::printf("manifest: version_id %s  mode %s  window %d  areas %d  "
                "weather %d  traffic %d  last_call %d  waiting %d\n",
                m.version_id.c_str(), ModeName(m.mode), c.window,
                c.num_areas, c.use_weather, c.use_traffic, c.use_last_call,
                c.use_waiting_time);
  }

  const char* blob = nullptr;
  size_t blob_size = 0;
  if (ms->Section(store::kSectionParamsIndex, &data, &size).ok() &&
      ms->Section(store::kSectionParamsBlob, &blob, &blob_size).ok()) {
    std::vector<store::TensorRecord> records;
    st = store::DecodeParamsIndex(data, size, blob_size, &records);
    if (!st.ok()) return Fail("params index", st);
    // Stored bytes against the fp32 footprint show what each encoding
    // buys; packing one model under each --encoding compares them.
    util::TablePrinter table({"tensor", "shape", "enc", "fp32_bytes",
                              "stored_bytes", "ratio", "act_absmax"});
    size_t total_fp32 = 0, total_stored = 0, calibrated = 0;
    for (const store::TensorRecord& r : records) {
      const size_t fp32 = static_cast<size_t>(r.rows) *
                          static_cast<size_t>(r.cols) * sizeof(float);
      const size_t stored =
          static_cast<size_t>(r.data_bytes + r.scales_bytes);
      total_fp32 += fp32;
      total_stored += stored;
      calibrated += r.act_absmax > 0.0f;
      char shape[32], absmax[32];
      std::snprintf(shape, sizeof(shape), "%dx%d", r.rows, r.cols);
      std::snprintf(absmax, sizeof(absmax), "%.4g", r.act_absmax);
      table.AddRow({r.name, shape, EncodingName(r.encoding), Bytes(fp32),
                    Bytes(stored), Ratio(fp32, stored), absmax});
    }
    table.Print();
    std::printf("tensors %zu  calibrated %zu  fp32 bytes %zu  "
                "stored bytes %zu  ratio %s\n",
                records.size(), calibrated, total_fp32, total_stored,
                Ratio(total_fp32, total_stored).c_str());
  }

  if (ms->Section(store::kSectionEa, &data, &size).ok()) {
    std::unique_ptr<store::MappedEmpiricalAverage> ea;
    st = store::MappedEmpiricalAverage::Create(data, size, &ea);
    if (!st.ok()) return Fail("ea section", st);
    std::printf("ea: %d areas (zero-copy tier-3 baseline)\n",
                ea->num_areas());
  }
  return 0;
}

int Diff(const std::string& path_a, const std::string& path_b) {
  std::shared_ptr<const store::StoredModel> a, b;
  util::Status st = store::StoredModel::Open(path_a, &a);
  if (!st.ok()) return Fail(path_a.c_str(), st) + 1;  // 2 = error
  st = store::StoredModel::Open(path_b, &b);
  if (!st.ok()) return Fail(path_b.c_str(), st) + 1;

  bool differ = false;
  if (a->version_id() != b->version_id()) {
    std::printf("version_id: %s vs %s\n", a->version_id().c_str(),
                b->version_id().c_str());
    differ = true;
  }
  if (a->manifest().mode != b->manifest().mode) {
    std::printf("mode: %s vs %s\n", ModeName(a->manifest().mode),
                ModeName(b->manifest().mode));
    differ = true;
  }

  // Value-level comparison over the bound fp32 tensors: this sees through
  // encoding differences (a raw and a compressed artifact of the same
  // model diff clean; raw vs quant shows exactly the quantization error).
  util::TablePrinter table({"tensor", "status", "max_abs_diff"});
  for (const auto& pa : a->params().parameters()) {
    const nn::Parameter* pb = b->params().Find(pa->name);
    if (pb == nullptr) {
      table.AddRow({pa->name, "only in A", "-"});
      differ = true;
      continue;
    }
    const nn::Tensor& ta = pa->value;
    const nn::Tensor& tb = pb->value;
    if (ta.rows() != tb.rows() || ta.cols() != tb.cols()) {
      table.AddRow({pa->name, "shape mismatch", "-"});
      differ = true;
      continue;
    }
    float max_diff = 0.0f;
    for (size_t i = 0; i < ta.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(ta.data()[i] - tb.data()[i]));
    }
    if (max_diff > 0.0f) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", max_diff);
      table.AddRow({pa->name, "differs", buf});
      differ = true;
    }
  }
  for (const auto& pb : b->params().parameters()) {
    if (a->params().Find(pb->name) == nullptr) {
      table.AddRow({pb->name, "only in B", "-"});
      differ = true;
    }
  }
  if (differ) {
    table.Print();
    std::printf("artifacts differ\n");
    return 1;
  }
  std::printf("artifacts are value-identical (%zu tensors)\n",
              a->params().parameters().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  deepsd::util::CommandLine cli(argc, argv);
  deepsd::util::Status st = cli.CheckKnown(
      {"params", "checkpoint", "data", "out", "mode", "no_weather",
       "no_traffic", "encoding", "version_id", "ea", "ref_days", "help"});
  if (!st.ok() || cli.GetBool("help", false) || cli.positionals().empty()) {
    return Usage(st);
  }
  const std::string& cmd = cli.positionals()[0];
  if (cmd == "pack") return Pack(cli);
  if (cmd == "verify" && cli.positionals().size() == 2) {
    return Verify(cli.positionals()[1]);
  }
  if (cmd == "inspect" && cli.positionals().size() == 2) {
    return Inspect(cli.positionals()[1]);
  }
  if (cmd == "diff" && cli.positionals().size() == 3) {
    return Diff(cli.positionals()[1], cli.positionals()[2]);
  }
  return Usage(deepsd::util::Status::InvalidArgument(
      "unknown or malformed subcommand: " + cmd));
}
