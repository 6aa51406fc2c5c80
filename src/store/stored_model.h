#ifndef DEEPSD_STORE_STORED_MODEL_H_
#define DEEPSD_STORE_STORED_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/model.h"
#include "nn/parameter.h"
#include "store/model_store.h"
#include "store/versioned_model.h"
#include "util/status.h"

namespace deepsd {
namespace store {

/// Decoded "manifest" section: everything needed to rebuild the serving
/// model's structure without the training pipeline.
struct Manifest {
  std::string version_id;
  core::DeepSDModel::Mode mode = core::DeepSDModel::Mode::kBasic;
  core::DeepSDConfig config;
};

/// Manifest section codec. Encode is deterministic (equal manifests yield
/// equal bytes — artifacts of identical content diff clean). Decode is a
/// typed InvalidArgument on truncated, trailing, or out-of-range bytes.
std::vector<char> EncodeManifest(const Manifest& manifest);
util::Status DecodeManifest(const char* data, size_t size, Manifest* out);

/// "ea" section layout: this fixed header followed by
/// `float area_means[num_areas]` then
/// `float cell_means[num_areas * slots]` (row-major by area). Absent
/// entries are NaN, as in baselines::EmpiricalAverage::Tables.
struct EaSectionHeader {
  uint32_t num_areas = 0;
  uint32_t slots = 0;        ///< minutes per day (1440)
  float global_mean = 0.0f;  ///< NaN when nothing was fitted
  uint32_t flags = 0;        ///< reserved, must be 0
};
static_assert(sizeof(EaSectionHeader) == 16, "ea header layout is frozen");

/// Encodes `ea`'s tables as an "ea" section of exactly `num_areas` areas:
/// fitted areas at or past `num_areas` are dropped, and areas past the
/// fitted range are NaN.
std::vector<char> EncodeEaSection(const baselines::EmpiricalAverage& ea,
                                  int num_areas);

/// Validates "ea" section bytes (typed InvalidArgument on any
/// malformation) and points `*out` at them: a zero-copy baseline whose
/// tables are the section itself, so N replicas share one copy and open
/// costs no parse. The caller keeps `data` alive — in practice the
/// StoredModel that owns the mapping.
util::Status DecodeEaSection(const char* data, size_t size,
                             baselines::EmpiricalAverage* out);

/// One tensor's entry in the "params.idx" section. Offsets are relative to
/// the start of the "params.bin" section payload.
struct TensorRecord {
  std::string name;
  int32_t rows = 0;
  int32_t cols = 0;
  float act_absmax = 0.0f;
  TensorEncoding encoding = TensorEncoding::kRawF32;
  uint64_t data_off = 0;
  uint64_t data_bytes = 0;
  uint64_t scales_off = 0;    ///< kInt8 only
  uint64_t scales_bytes = 0;  ///< kInt8 only
};

/// How PackModelArtifact encodes parameter tensors.
enum class ParamEncoding {
  /// Raw fp32 — served zero-copy as Tensor views into the mapping. The
  /// default: open is O(mmap) and replicas share the bytes.
  kRaw,
  /// Losslessly compressed float blocks — smaller artifact, owned copies
  /// at open. Bit-exact with kRaw.
  kCompressed,
  /// Calibrated GEMM weights (rows > 1 and act_absmax > 0) as int8 codes +
  /// per-column scales; embedding tables, biases and uncalibrated weights
  /// stay raw fp32. A DEEPSD_KERNEL=quant replica serves the exact packed
  /// integer weights.
  kQuant,
};

/// Parses the tools' encoding names — "raw", "compressed", "quant" — into
/// `*out`. False (and `*out` untouched) for any other name.
bool ParseParamEncoding(const std::string& name, ParamEncoding* out);

/// Encodes a parameter store into the "params.idx" / "params.bin" section
/// pair. Tensor payloads are 64-byte aligned inside the blob (the blob
/// itself is page-aligned in the file, so views are cacheline-aligned
/// absolutely). Deterministic.
void EncodeParamsSections(const nn::ParameterStore& params,
                          ParamEncoding encoding, std::vector<char>* idx,
                          std::vector<char>* blob);

/// Decodes and validates a "params.idx" section against the blob's size:
/// every record's regions must land inside the blob with the right
/// alignment and byte counts for their encoding. Typed InvalidArgument
/// otherwise.
util::Status DecodeParamsIndex(const char* data, size_t size,
                               uint64_t blob_size,
                               std::vector<TensorRecord>* out);

/// A complete model version opened from one DSAR1 artifact — the
/// ModelVersion implementation behind hot swap (store/versioned_model.h).
///
/// Open() maps the artifact (ModelStore), decodes the manifest, rebuilds
/// the DeepSDModel structure, and binds every model parameter to the
/// artifact's tensors: raw-fp32 tensors as zero-copy views into the
/// mapping, compressed/int8 tensors as owned decoded copies. A parameter
/// the artifact does not cover is a FailedPrecondition naming it — a
/// stored model never serves silent random initialization. When the
/// artifact carries an "ea" section, baseline() is a zero-copy
/// EmpiricalAverage view of it.
class StoredModel : public ModelVersion {
 public:
  static util::Status Open(const std::string& path,
                           std::shared_ptr<const StoredModel>* out);

  const core::DeepSDModel& model() const override { return *model_; }
  const baselines::EmpiricalAverage* baseline() const override {
    return ea_.get();
  }
  std::string version_id() const override { return manifest_.version_id; }

  const Manifest& manifest() const { return manifest_; }
  const ModelStore& store() const { return *store_; }
  const nn::ParameterStore& params() const { return *params_; }

 private:
  StoredModel() = default;

  util::Status Bind();

  std::shared_ptr<const ModelStore> store_;
  ModelStore::Pin pin_;  ///< params may alias the mapping for our lifetime
  Manifest manifest_;
  std::unique_ptr<nn::ParameterStore> params_;
  std::unique_ptr<core::DeepSDModel> model_;
  std::unique_ptr<baselines::EmpiricalAverage> ea_;
};

}  // namespace store
}  // namespace deepsd

#endif  // DEEPSD_STORE_STORED_MODEL_H_
