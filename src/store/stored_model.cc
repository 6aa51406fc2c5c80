#include "store/stored_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "data/types.h"
#include "store/artifact.h"
#include "util/byte_io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace deepsd {
namespace store {

namespace {

constexpr uint32_t kManifestCodecVersion = 1;
constexpr uint32_t kParamsIndexCodecVersion = 1;

util::Status Malformed(const std::string& what) {
  return util::Status::InvalidArgument("model store artifact: " + what);
}

}  // namespace

std::vector<char> EncodeManifest(const Manifest& manifest) {
  util::ByteWriter w;
  w.PutPod<uint32_t>(kManifestCodecVersion);
  w.PutString(manifest.version_id);
  w.PutPod<uint8_t>(
      manifest.mode == core::DeepSDModel::Mode::kAdvanced ? 1 : 0);
  const core::DeepSDConfig& c = manifest.config;
  w.PutPod<int32_t>(c.window);
  w.PutPod<int32_t>(c.num_areas);
  w.PutPod<int32_t>(c.area_embed_dim);
  w.PutPod<int32_t>(c.time_vocab);
  w.PutPod<int32_t>(c.time_embed_dim);
  w.PutPod<int32_t>(c.week_embed_dim);
  w.PutPod<int32_t>(c.weather_vocab);
  w.PutPod<int32_t>(c.weather_embed_dim);
  w.PutPod<int32_t>(c.hidden1);
  w.PutPod<int32_t>(c.hidden2);
  w.PutPod<int32_t>(c.proj_dim);
  w.PutPod<float>(c.dropout);
  w.PutPod<float>(c.leaky_alpha);
  w.PutPod<uint8_t>(c.use_weather ? 1 : 0);
  w.PutPod<uint8_t>(c.use_traffic ? 1 : 0);
  w.PutPod<uint8_t>(c.use_last_call ? 1 : 0);
  w.PutPod<uint8_t>(c.use_waiting_time ? 1 : 0);
  w.PutPod<uint8_t>(c.uniform_weekday_weights ? 1 : 0);
  w.PutPod<uint8_t>(c.use_residual ? 1 : 0);
  w.PutPod<uint8_t>(c.use_embedding ? 1 : 0);
  w.PutPod<uint8_t>(c.clamp_nonnegative ? 1 : 0);
  return w.TakeBytes();
}

util::Status DecodeManifest(const char* data, size_t size, Manifest* out) {
  util::ByteReader r(data, size);
  uint32_t codec = 0;
  if (!r.GetPod(&codec)) return Malformed("truncated manifest");
  if (codec != kManifestCodecVersion) {
    return Malformed(
        util::StrFormat("unknown manifest codec version %u", codec));
  }
  Manifest m;
  uint8_t mode = 0;
  if (!r.GetString(&m.version_id, /*max_len=*/4096) || !r.GetPod(&mode)) {
    return Malformed("truncated manifest");
  }
  if (mode > 1) return Malformed("manifest mode byte out of range");
  m.mode = mode == 1 ? core::DeepSDModel::Mode::kAdvanced
                     : core::DeepSDModel::Mode::kBasic;
  core::DeepSDConfig& c = m.config;
  uint8_t use_weather = 0, use_traffic = 0, use_last_call = 0;
  uint8_t use_waiting_time = 0, uniform_weekday = 0, use_residual = 0;
  uint8_t use_embedding = 0, clamp_nonnegative = 0;
  if (!r.GetPod(&c.window) || !r.GetPod(&c.num_areas) ||
      !r.GetPod(&c.area_embed_dim) || !r.GetPod(&c.time_vocab) ||
      !r.GetPod(&c.time_embed_dim) || !r.GetPod(&c.week_embed_dim) ||
      !r.GetPod(&c.weather_vocab) || !r.GetPod(&c.weather_embed_dim) ||
      !r.GetPod(&c.hidden1) || !r.GetPod(&c.hidden2) ||
      !r.GetPod(&c.proj_dim) || !r.GetPod(&c.dropout) ||
      !r.GetPod(&c.leaky_alpha) || !r.GetPod(&use_weather) ||
      !r.GetPod(&use_traffic) || !r.GetPod(&use_last_call) ||
      !r.GetPod(&use_waiting_time) || !r.GetPod(&uniform_weekday) ||
      !r.GetPod(&use_residual) || !r.GetPod(&use_embedding) ||
      !r.GetPod(&clamp_nonnegative)) {
    return Malformed("truncated manifest");
  }
  if (r.remaining() != 0) return Malformed("trailing bytes after manifest");
  if (c.window <= 0 || c.num_areas <= 0 || c.time_vocab <= 0 ||
      c.hidden1 <= 0 || c.hidden2 <= 0 || c.proj_dim <= 0) {
    return Malformed("manifest config dimensions out of range");
  }
  if (!std::isfinite(c.dropout) || !std::isfinite(c.leaky_alpha)) {
    return Malformed("manifest config has non-finite values");
  }
  c.use_weather = use_weather != 0;
  c.use_traffic = use_traffic != 0;
  c.use_last_call = use_last_call != 0;
  c.use_waiting_time = use_waiting_time != 0;
  c.uniform_weekday_weights = uniform_weekday != 0;
  c.use_residual = use_residual != 0;
  c.use_embedding = use_embedding != 0;
  c.clamp_nonnegative = clamp_nonnegative != 0;
  *out = std::move(m);
  return util::Status::OK();
}

std::vector<char> EncodeEaSection(const baselines::EmpiricalAverage& ea,
                                  int num_areas) {
  DEEPSD_CHECK(num_areas >= 0);
  const baselines::EmpiricalAverage::Tables& t = ea.tables();
  const size_t slots = data::kMinutesPerDay;
  const size_t areas = static_cast<size_t>(num_areas);
  const size_t fitted = std::min<size_t>(areas, t.num_areas);
  EaSectionHeader header;
  header.num_areas = static_cast<uint32_t>(num_areas);
  header.slots = static_cast<uint32_t>(slots);
  header.global_mean = t.global_mean;
  header.flags = 0;
  std::vector<char> out(sizeof(header) +
                        (areas + areas * slots) * sizeof(float));
  char* dst = out.data();
  std::memcpy(dst, &header, sizeof(header));
  dst += sizeof(header);
  // The first `n` of `total` floats come from `src`; the rest are NaN.
  auto put = [&dst](const float* src, size_t n, size_t total) {
    if (n > 0) std::memcpy(dst, src, n * sizeof(float));
    const float absent = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = n; i < total; ++i) {
      std::memcpy(dst + i * sizeof(float), &absent, sizeof(float));
    }
    dst += total * sizeof(float);
  };
  put(t.area_means, fitted, areas);
  put(t.cell_means, fitted * slots, areas * slots);
  return out;
}

util::Status DecodeEaSection(const char* data, size_t size,
                             baselines::EmpiricalAverage* out) {
  EaSectionHeader header;
  if (size < sizeof(header)) return Malformed("ea section truncated");
  std::memcpy(&header, data, sizeof(header));
  if (header.flags != 0) return Malformed("ea section has unknown flags");
  if (header.slots != static_cast<uint32_t>(data::kMinutesPerDay)) {
    return Malformed(
        util::StrFormat("ea section slot count %u != minutes per day %d",
                        header.slots, data::kMinutesPerDay));
  }
  const uint64_t floats =
      static_cast<uint64_t>(header.num_areas) +
      static_cast<uint64_t>(header.num_areas) * header.slots;
  const uint64_t expected = sizeof(header) + floats * sizeof(float);
  if (expected != size) {
    return Malformed(util::StrFormat(
        "ea section size %zu disagrees with its header (expected %llu)",
        size, static_cast<unsigned long long>(expected)));
  }
  baselines::EmpiricalAverage::Tables view;
  view.num_areas = static_cast<int>(header.num_areas);
  view.global_mean = header.global_mean;
  // Sections are page-aligned in the file and the header is 16 bytes, so
  // these float pointers are aligned.
  view.area_means = reinterpret_cast<const float*>(data + sizeof(header));
  view.cell_means = view.area_means + header.num_areas;
  *out = baselines::EmpiricalAverage(view);
  return util::Status::OK();
}

bool ParseParamEncoding(const std::string& name, ParamEncoding* out) {
  if (name == "raw") {
    *out = ParamEncoding::kRaw;
  } else if (name == "compressed") {
    *out = ParamEncoding::kCompressed;
  } else if (name == "quant") {
    *out = ParamEncoding::kQuant;
  } else {
    return false;
  }
  return true;
}

void EncodeParamsSections(const nn::ParameterStore& params,
                          ParamEncoding encoding, std::vector<char>* idx,
                          std::vector<char>* blob) {
  idx->clear();
  blob->clear();
  util::ByteWriter w;
  w.PutPod<uint32_t>(kParamsIndexCodecVersion);
  w.PutPod<uint64_t>(params.parameters().size());
  for (const auto& p : params.parameters()) {
    const nn::Tensor& value = p->value;  // may itself be a store view
    TensorRecord rec;
    rec.rows = value.rows();
    rec.cols = value.cols();
    rec.act_absmax = p->act_absmax;
    // Only calibrated GEMM weights go int8. Bias rows ([1, n]) are a
    // rounding-error-sized fraction of the bytes and the quant kernels add
    // them in fp32; embedding tables are consumed as fp32 lookups, never
    // through a quant GEMM, so quantizing them would make a stored quant
    // model diverge from in-memory quant serving.
    const bool int8_tensor = encoding == ParamEncoding::kQuant &&
                             value.rows() > 1 && p->act_absmax > 0.0f;
    if (int8_tensor) {
      const nn::kernels::QuantizedWeights& q = p->Quantized();
      rec.encoding = TensorEncoding::kInt8;
      rec.data_off = AppendAligned(blob, q.data.data(), q.data.size(), 64);
      rec.data_bytes = q.data.size();
      rec.scales_off = AppendAligned(blob, q.scales.data(),
                                     q.scales.size() * sizeof(float), 64);
      rec.scales_bytes = q.scales.size() * sizeof(float);
    } else if (encoding == ParamEncoding::kCompressed) {
      util::ByteWriter block;
      util::PutFloatBlock(&block, value.data(), value.size());
      rec.encoding = TensorEncoding::kCompressedF32;
      rec.data_off =
          AppendAligned(blob, block.bytes().data(), block.size(), 64);
      rec.data_bytes = block.size();
    } else {
      rec.encoding = TensorEncoding::kRawF32;
      rec.data_off = AppendAligned(blob, value.data(),
                                   value.size() * sizeof(float), 64);
      rec.data_bytes = value.size() * sizeof(float);
    }
    w.PutString(p->name);
    w.PutPod<int32_t>(rec.rows);
    w.PutPod<int32_t>(rec.cols);
    w.PutPod<float>(rec.act_absmax);
    w.PutPod<uint8_t>(static_cast<uint8_t>(rec.encoding));
    w.PutPod<uint64_t>(rec.data_off);
    w.PutPod<uint64_t>(rec.data_bytes);
    w.PutPod<uint64_t>(rec.scales_off);
    w.PutPod<uint64_t>(rec.scales_bytes);
  }
  *idx = w.TakeBytes();
}

util::Status DecodeParamsIndex(const char* data, size_t size,
                               uint64_t blob_size,
                               std::vector<TensorRecord>* out) {
  out->clear();
  util::ByteReader r(data, size);
  uint32_t codec = 0;
  uint64_t count = 0;
  if (!r.GetPod(&codec)) return Malformed("truncated params index");
  if (codec != kParamsIndexCodecVersion) {
    return Malformed(
        util::StrFormat("unknown params index codec version %u", codec));
  }
  if (!r.GetPod(&count)) return Malformed("truncated params index");
  const auto in_blob = [blob_size](uint64_t off, uint64_t bytes) {
    return bytes <= blob_size && off <= blob_size - bytes;
  };
  for (uint64_t i = 0; i < count; ++i) {
    TensorRecord rec;
    uint8_t enc = 0;
    if (!r.GetString(&rec.name, /*max_len=*/4096) || !r.GetPod(&rec.rows) ||
        !r.GetPod(&rec.cols) || !r.GetPod(&rec.act_absmax) ||
        !r.GetPod(&enc) || !r.GetPod(&rec.data_off) ||
        !r.GetPod(&rec.data_bytes) || !r.GetPod(&rec.scales_off) ||
        !r.GetPod(&rec.scales_bytes)) {
      return Malformed("truncated params index");
    }
    if (rec.rows < 0 || rec.cols < 0) {
      return Malformed("params index tensor shape out of range");
    }
    if (!std::isfinite(rec.act_absmax) || rec.act_absmax < 0.0f) {
      return Malformed("params index calibration out of range");
    }
    if (enc > static_cast<uint8_t>(TensorEncoding::kInt8)) {
      return Malformed(util::StrFormat(
          "unknown tensor encoding %u for parameter '%s'", enc,
          rec.name.c_str()));
    }
    rec.encoding = static_cast<TensorEncoding>(enc);
    if (!in_blob(rec.data_off, rec.data_bytes)) {
      return Malformed("params index tensor data out of bounds");
    }
    const uint64_t elems =
        static_cast<uint64_t>(rec.rows) * static_cast<uint64_t>(rec.cols);
    switch (rec.encoding) {
      case TensorEncoding::kRawF32:
        if (rec.data_bytes != elems * sizeof(float)) {
          return Malformed("raw tensor byte count disagrees with its shape");
        }
        if (rec.data_off % alignof(float) != 0) {
          return Malformed("raw tensor data is misaligned");
        }
        break;
      case TensorEncoding::kCompressedF32:
        break;  // self-describing block; decoded length is checked at bind
      case TensorEncoding::kInt8:
        if (rec.data_bytes != elems) {
          return Malformed("int8 tensor byte count disagrees with its shape");
        }
        if (rec.scales_bytes !=
                static_cast<uint64_t>(rec.cols) * sizeof(float) ||
            !in_blob(rec.scales_off, rec.scales_bytes) ||
            rec.scales_off % alignof(float) != 0) {
          return Malformed("int8 tensor scales out of bounds");
        }
        break;
    }
    out->push_back(std::move(rec));
  }
  if (r.remaining() != 0) {
    return Malformed("trailing bytes after params index");
  }
  return util::Status::OK();
}

util::Status StoredModel::Open(const std::string& path,
                               std::shared_ptr<const StoredModel>* out) {
  std::shared_ptr<StoredModel> sm(new StoredModel());
  DEEPSD_RETURN_IF_ERROR(ModelStore::Open(path, &sm->store_));
  sm->pin_ = sm->store_->AcquirePin();
  DEEPSD_RETURN_IF_ERROR(sm->Bind());
  *out = std::move(sm);
  return util::Status::OK();
}

util::Status StoredModel::Bind() {
  const char* bytes = nullptr;
  size_t size = 0;
  DEEPSD_RETURN_IF_ERROR(store_->Section(kSectionManifest, &bytes, &size));
  DEEPSD_RETURN_IF_ERROR(DecodeManifest(bytes, size, &manifest_));

  const char* idx_bytes = nullptr;
  size_t idx_size = 0;
  DEEPSD_RETURN_IF_ERROR(
      store_->Section(kSectionParamsIndex, &idx_bytes, &idx_size));
  const char* blob = nullptr;
  size_t blob_size = 0;
  DEEPSD_RETURN_IF_ERROR(
      store_->Section(kSectionParamsBlob, &blob, &blob_size));
  std::vector<TensorRecord> records;
  DEEPSD_RETURN_IF_ERROR(
      DecodeParamsIndex(idx_bytes, idx_size, blob_size, &records));

  // Rebuild the model structure; the init values are immediately
  // overwritten by the artifact binds below (and Bind fails loudly if any
  // parameter would survive unbound).
  params_ = std::make_unique<nn::ParameterStore>();
  util::Rng rng(1);
  model_ = std::make_unique<core::DeepSDModel>(manifest_.config,
                                               manifest_.mode, params_.get(),
                                               &rng);

  std::unordered_map<std::string, const TensorRecord*> by_name;
  by_name.reserve(records.size());
  for (const TensorRecord& rec : records) by_name[rec.name] = &rec;

  std::string missing;
  for (auto& p : params_->parameters()) {
    const auto it = by_name.find(p->name);
    if (it == by_name.end()) {
      // A stored model must never serve random initialization: collect
      // and report rather than silently keeping the fresh init.
      if (!missing.empty()) missing += ", ";
      missing += p->name;
      continue;
    }
    const TensorRecord& rec = *it->second;
    if (rec.rows != p->value.rows() || rec.cols != p->value.cols()) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "model store %s: parameter '%s' is [%d, %d] in the artifact but "
          "the manifest config builds it as [%d, %d]",
          store_->path().c_str(), p->name.c_str(), rec.rows, rec.cols,
          p->value.rows(), p->value.cols()));
    }
    const size_t elems = static_cast<size_t>(rec.rows) * rec.cols;
    switch (rec.encoding) {
      case TensorEncoding::kRawF32: {
        const float* src =
            reinterpret_cast<const float*>(blob + rec.data_off);
        for (size_t i = 0; i < elems; ++i) {
          if (!std::isfinite(src[i])) {
            return Malformed("non-finite value for parameter '" + p->name +
                             "'");
          }
        }
        p->InstallValue(nn::Tensor::View(src, rec.rows, rec.cols),
                        rec.act_absmax);
        break;
      }
      case TensorEncoding::kCompressedF32: {
        util::ByteReader r(blob + rec.data_off, rec.data_bytes);
        nn::Tensor t(rec.rows, rec.cols);
        if ((elems > 0 && !util::GetFloatBlock(&r, t.data(), elems)) ||
            r.remaining() != 0) {
          return Malformed("corrupt compressed block for parameter '" +
                           p->name + "'");
        }
        for (float v : t.flat()) {
          if (!std::isfinite(v)) {
            return Malformed("non-finite value for parameter '" + p->name +
                             "'");
          }
        }
        p->InstallValue(std::move(t), rec.act_absmax);
        break;
      }
      case TensorEncoding::kInt8: {
        nn::kernels::QuantizedWeights qw;
        qw.rows = rec.rows;
        qw.cols = rec.cols;
        qw.data.resize(elems);
        if (elems > 0) {
          std::memcpy(qw.data.data(), blob + rec.data_off, elems);
        }
        qw.scales.resize(static_cast<size_t>(rec.cols));
        if (rec.cols > 0) {
          std::memcpy(qw.scales.data(), blob + rec.scales_off,
                      rec.scales_bytes);
        }
        for (float s : qw.scales) {
          if (!std::isfinite(s) || s < 0.0f) {
            return Malformed("corrupt int8 scales for parameter '" +
                             p->name + "'");
          }
        }
        // Dequantize into the fp32 view so non-quant kernel modes (and a
        // fine-tune that warm-starts from this artifact) see the same
        // weights the int8 path serves.
        nn::Tensor t(rec.rows, rec.cols);
        for (int row = 0; row < rec.rows; ++row) {
          for (int col = 0; col < rec.cols; ++col) {
            const size_t i = static_cast<size_t>(row) * rec.cols + col;
            t.data()[i] = static_cast<float>(qw.data[i]) * qw.scales[col];
          }
        }
        p->InstallValue(std::move(t), rec.act_absmax);
        p->InstallQuantized(std::move(qw));
        break;
      }
    }
  }
  if (!missing.empty()) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "model store %s: artifact does not cover model parameter(s): %s",
        store_->path().c_str(), missing.c_str()));
  }

  // A stored model is immutable serving state: nothing ever trains it, so
  // the full-size gradient tensors ParameterStore::Create allocated are dead
  // weight. Releasing them makes N replicas of one raw-encoded artifact cost
  // per-replica metadata, not N private copies of the parameter footprint.
  for (auto& p : params_->parameters()) {
    p->grad = nn::Tensor();
  }

  if (store_->FindSection(kSectionEa) >= 0) {
    const char* ea_bytes = nullptr;
    size_t ea_size = 0;
    DEEPSD_RETURN_IF_ERROR(store_->Section(kSectionEa, &ea_bytes, &ea_size));
    ea_ = std::make_unique<baselines::EmpiricalAverage>();
    DEEPSD_RETURN_IF_ERROR(DecodeEaSection(ea_bytes, ea_size, ea_.get()));
  }
  return util::Status::OK();
}

}  // namespace store
}  // namespace deepsd
