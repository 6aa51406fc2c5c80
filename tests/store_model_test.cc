// ModelStore / StoredModel failure-path and binding tests
// (docs/model_store.md): a DSAR1 artifact that is missing, truncated, or
// corrupted in any single bit must come back as a typed util::Status —
// never UB, never an abort — and a v1 reader must reject artifacts whose
// min_reader is from the future. The one deliberate abort — unmapping a
// store while a reader holds a pin — is pinned as a death test.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/checkpoint.h"
#include "core/model.h"
#include "data/types.h"
#include "nn/parameter.h"
#include "store/format.h"
#include "store/model_store.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace deepsd {
namespace store {
namespace {

core::DeepSDConfig TinyConfig() {
  core::DeepSDConfig config;
  config.num_areas = 4;
  config.use_weather = false;
  config.use_traffic = false;
  return config;
}

/// Builds a tiny basic model and packs it to `path`. Returns the packed
/// parameter values (by name) for bit-exactness checks.
std::vector<nn::NamedTensor> PackTinyArtifact(
    const std::string& path, ParamEncoding encoding = ParamEncoding::kRaw,
    const baselines::EmpiricalAverage* ea = nullptr) {
  nn::ParameterStore params;
  util::Rng rng(29);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  if (encoding == ParamEncoding::kQuant) {
    for (auto& p : params.parameters()) {
      if (p->value.rows() > 1) p->act_absmax = 1.0f;
    }
  }
  PackOptions options;
  options.version_id = "test-v1";
  options.encoding = encoding;
  const util::Status st =
      PackModelArtifact(model, params, ea, options, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<nn::NamedTensor> values;
  for (const auto& p : params.parameters()) {
    nn::NamedTensor nt;
    nt.name = p->name;
    nt.value = p->value;
    values.push_back(std::move(nt));
  }
  return values;
}

std::vector<char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // fwrite's buffer must be non-null even for zero bytes.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Rewrites the header with `mutate` applied and its CRC recomputed, so
/// the test reaches the check *behind* the CRC seal.
void MutateHeader(const std::string& path,
                  const std::function<void(FileHeader*)>& mutate) {
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), sizeof(FileHeader));
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  mutate(&header);
  header.header_crc = util::Crc32(&header, kHeaderCrcBytes);
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteAll(path, bytes);
}

bool IsTyped(const util::Status& st) {
  return !st.ok() && (st.code() == util::Status::Code::kInvalidArgument ||
                      st.code() == util::Status::Code::kIoError ||
                      st.code() == util::Status::Code::kNotFound ||
                      st.code() == util::Status::Code::kFailedPrecondition);
}

TEST(ModelStoreTest, MissingFileIsNotFound) {
  std::shared_ptr<const ModelStore> s;
  const util::Status st =
      ModelStore::Open(::testing::TempDir() + "/does_not_exist.dsar", &s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kNotFound);
}

TEST(ModelStoreTest, TruncationAtAnyLayerIsATypedError) {
  const std::string path = ::testing::TempDir() + "/trunc.dsar";
  PackTinyArtifact(path);
  const std::vector<char> bytes = ReadAll(path);
  // Cut inside the header, inside the TOC, at a page boundary, and one
  // byte short of complete — each must be a typed refusal at Open.
  for (size_t cut :
       {size_t{0}, size_t{32}, sizeof(FileHeader) + 10, size_t{kPageSize},
        bytes.size() - 1}) {
    const std::string cut_path = ::testing::TempDir() + "/trunc_cut.dsar";
    WriteAll(cut_path,
             std::vector<char>(bytes.begin(), bytes.begin() + cut));
    std::shared_ptr<const ModelStore> s;
    const util::Status st = ModelStore::Open(cut_path, &s);
    EXPECT_TRUE(IsTyped(st)) << "cut at " << cut << ": " << st.ToString();
  }
}

TEST(ModelStoreTest, BadMagicIsATypedError) {
  const std::string path = ::testing::TempDir() + "/magic.dsar";
  PackTinyArtifact(path);
  MutateHeader(path, [](FileHeader* h) { h->magic[0] = 'X'; });
  std::shared_ptr<const ModelStore> s;
  const util::Status st = ModelStore::Open(path, &s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("magic"), std::string::npos);
}

TEST(ModelStoreTest, FutureMinReaderIsRejectedWithAClearError) {
  const std::string path = ::testing::TempDir() + "/future.dsar";
  PackTinyArtifact(path);
  MutateHeader(path, [](FileHeader* h) {
    h->version = kFormatVersion + 1;
    h->min_reader = kFormatVersion + 1;
  });
  std::shared_ptr<const ModelStore> s;
  const util::Status st = ModelStore::Open(path, &s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kFailedPrecondition);
  // The message must name both versions so the operator knows it is an
  // upgrade problem, not corruption.
  EXPECT_NE(st.ToString().find("reader"), std::string::npos);
}

TEST(ModelStoreTest, HeaderAndTocBitFlipsAreCaughtAtOpen) {
  const std::string path = ::testing::TempDir() + "/seal.dsar";
  PackTinyArtifact(path);
  const std::vector<char> good = ReadAll(path);
  FileHeader header;
  std::memcpy(&header, good.data(), sizeof(header));

  // One flipped bit inside the sealed header region...
  std::vector<char> bad = good;
  bad[9] = static_cast<char>(bad[9] ^ 0x10);
  WriteAll(path, bad);
  std::shared_ptr<const ModelStore> s;
  util::Status st = ModelStore::Open(path, &s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);

  // ...and one inside the TOC.
  bad = good;
  bad[header.toc_offset + 4] =
      static_cast<char>(bad[header.toc_offset + 4] ^ 0x01);
  WriteAll(path, bad);
  st = ModelStore::Open(path, &s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
}

TEST(ModelStoreTest, AnySingleBitFlipInAnySectionIsCaught) {
  const std::string path = ::testing::TempDir() + "/flip.dsar";
  PackTinyArtifact(path);
  const std::vector<char> good = ReadAll(path);

  std::shared_ptr<const ModelStore> clean;
  ASSERT_TRUE(ModelStore::Open(path, &clean).ok());
  ASSERT_TRUE(clean->VerifyAll().ok());

  const std::string flip_path = ::testing::TempDir() + "/flip_bit.dsar";
  for (size_t i = 0; i < clean->section_count(); ++i) {
    const SectionEntry entry = clean->entry(i);
    // First, middle, and last byte of the payload, a different bit each —
    // the CRC must catch a flip anywhere, including the final byte.
    const size_t offsets[] = {entry.offset,
                              entry.offset + entry.length / 2,
                              entry.offset + entry.length - 1};
    const uint8_t masks[] = {0x01, 0x08, 0x80};
    for (int v = 0; v < 3; ++v) {
      std::vector<char> bad = good;
      bad[offsets[v]] = static_cast<char>(bad[offsets[v]] ^ masks[v]);
      WriteAll(flip_path, bad);
      std::shared_ptr<const ModelStore> s;
      ASSERT_TRUE(ModelStore::Open(flip_path, &s).ok())
          << "payload corruption must not break the (lazy) open";
      const char* data = nullptr;
      size_t size = 0;
      const util::Status st = s->SectionAt(i, &data, &size);
      ASSERT_FALSE(st.ok())
          << "section " << SectionKindToString(entry.kind) << " variant "
          << v << " served corrupt bytes";
      EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
      // Sibling sections are untouched and must still verify.
      for (size_t j = 0; j < s->section_count(); ++j) {
        if (j == i) continue;
        EXPECT_TRUE(s->SectionAt(j, &data, &size).ok());
      }
    }
  }
}

TEST(ModelStoreDeathTest, UnmapWhilePinnedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "/pinned.dsar";
  PackTinyArtifact(path);
  EXPECT_DEATH(
      {
        std::shared_ptr<const ModelStore> s;
        if (ModelStore::Open(path, &s).ok()) {
          ModelStore::Pin pin = s->AcquirePin();
          s.reset();  // destroys the mapping under an outstanding pin
        }
      },
      "outstanding read pins");
}

TEST(StoredModelTest, RawArtifactBindsZeroCopyAndBitExact) {
  const std::string path = ::testing::TempDir() + "/stored_raw.dsar";
  const std::vector<nn::NamedTensor> want = PackTinyArtifact(path);

  std::shared_ptr<const StoredModel> stored;
  ASSERT_TRUE(StoredModel::Open(path, &stored).ok());
  EXPECT_EQ(stored->version_id(), "test-v1");
  EXPECT_EQ(stored->manifest().config.num_areas, 4);

  ASSERT_EQ(stored->params().parameters().size(), want.size());
  for (const nn::NamedTensor& nt : want) {
    const nn::Parameter* p = stored->params().Find(nt.name);
    ASSERT_NE(p, nullptr) << nt.name;
    const nn::Tensor& value = p->value;
    ASSERT_EQ(value.rows(), nt.value.rows());
    ASSERT_EQ(value.cols(), nt.value.cols());
    EXPECT_EQ(std::memcmp(value.data(), nt.value.data(),
                          sizeof(float) * static_cast<size_t>(value.size())),
              0)
        << nt.name;
    // Raw tensors are served as views into the mapping (zero copy), and a
    // serving-only model carries no gradient storage.
    EXPECT_TRUE(value.is_view()) << nt.name;
    EXPECT_EQ(p->grad.size(), 0) << nt.name;
  }
}

TEST(StoredModelTest, QuantArtifactOpensAndCoversEveryParameter) {
  const std::string path = ::testing::TempDir() + "/stored_quant.dsar";
  const std::vector<nn::NamedTensor> want =
      PackTinyArtifact(path, ParamEncoding::kQuant);
  std::shared_ptr<const StoredModel> stored;
  ASSERT_TRUE(StoredModel::Open(path, &stored).ok());
  EXPECT_EQ(stored->params().parameters().size(), want.size());
}

/// Calibration as the trainer leaves it: GEMM weights carry an activation
/// range, embedding tables none. Two edges of the int8 policy are pinned
/// on top: one GEMM weight stays uncalibrated, and one bias row is
/// calibrated (bias rows never go int8).
void CalibrateLikeTrainer(nn::ParameterStore* params) {
  for (auto& p : params->parameters()) {
    const std::string& n = p->name;
    if (n.size() > 2 && n.compare(n.size() - 2, 2, ".w") == 0) {
      p->act_absmax = 2.5f;
    }
  }
  params->Find("head.out.w")->act_absmax = 0.0f;
  params->Find("sd.fc1.b")->act_absmax = 1.5f;
}

bool BitEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(StoredModelTest, QuantizedOnlyCoversCalibratedGemmWeights) {
  const std::string path = ::testing::TempDir() + "/stored_policy.dsar";
  nn::ParameterStore params;
  util::Rng rng(15);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  CalibrateLikeTrainer(&params);
  PackOptions options;
  options.encoding = ParamEncoding::kQuant;
  ASSERT_TRUE(PackModelArtifact(model, params, nullptr, options, path).ok());

  std::shared_ptr<const ModelStore> ms;
  ASSERT_TRUE(ModelStore::Open(path, &ms).ok());
  const char* idx = nullptr;
  const char* blob = nullptr;
  size_t idx_size = 0, blob_size = 0;
  ASSERT_TRUE(ms->Section(kSectionParamsIndex, &idx, &idx_size).ok());
  ASSERT_TRUE(ms->Section(kSectionParamsBlob, &blob, &blob_size).ok());
  std::vector<TensorRecord> records;
  ASSERT_TRUE(DecodeParamsIndex(idx, idx_size, blob_size, &records).ok());
  ASSERT_EQ(records.size(), params.parameters().size());
  int int8_tensors = 0;
  for (const TensorRecord& r : records) {
    const nn::Parameter* p = params.Find(r.name);
    ASSERT_NE(p, nullptr) << r.name;
    EXPECT_EQ(r.act_absmax, p->act_absmax) << r.name;  // calibration travels
    const bool calibrated_gemm = r.rows > 1 && p->act_absmax > 0.0f;
    EXPECT_EQ(r.encoding == TensorEncoding::kInt8, calibrated_gemm)
        << r.name;
    int8_tensors += r.encoding == TensorEncoding::kInt8;
  }
  EXPECT_GT(int8_tensors, 0);
  // Embedding tables (fp32 lookups), bias rows and uncalibrated weights
  // stay fp32.
  for (const TensorRecord& r : records) {
    if (r.name == "id.area.embed" || r.name == "sd.fc1.b" ||
        r.name == "head.out.w") {
      EXPECT_EQ(r.encoding, TensorEncoding::kRawF32) << r.name;
    }
    if (r.name == "sd.fc1.w") {
      EXPECT_EQ(r.encoding, TensorEncoding::kInt8);
    }
  }
}

TEST(StoredModelTest, QuantizedLoadInstallsExactSavedCodes) {
  const std::string path = ::testing::TempDir() + "/stored_codes.dsar";
  nn::ParameterStore params;
  util::Rng rng(16);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  CalibrateLikeTrainer(&params);
  const nn::kernels::QuantizedWeights saved =
      params.Find("sd.fc1.w")->Quantized();
  PackOptions options;
  options.encoding = ParamEncoding::kQuant;
  ASSERT_TRUE(PackModelArtifact(model, params, nullptr, options, path).ok());

  std::shared_ptr<const StoredModel> stored;
  ASSERT_TRUE(StoredModel::Open(path, &stored).ok());
  // Bind installed the artifact's int8 codes directly — identical to what
  // the packer quantized, with no fp32 round-trip in between — and the
  // fp32 view is their exact dequantization.
  const nn::Parameter* w = stored->params().Find("sd.fc1.w");
  const nn::kernels::QuantizedWeights& q = w->Quantized();
  EXPECT_EQ(q.rows, saved.rows);
  EXPECT_EQ(q.cols, saved.cols);
  EXPECT_EQ(q.data, saved.data);
  EXPECT_EQ(q.scales, saved.scales);
  for (int row = 0; row < q.rows; ++row) {
    for (int col = 0; col < q.cols; ++col) {
      const size_t i = static_cast<size_t>(row) * q.cols + col;
      ASSERT_EQ(w->value.data()[i],
                static_cast<float>(q.data[i]) * q.scales[col]);
    }
  }
  // Lossless tensors are untouched by the quantized encoding.
  for (const char* name : {"id.area.embed", "sd.fc1.b", "head.out.w"}) {
    EXPECT_TRUE(BitEqual(stored->params().Find(name)->value,
                         params.Find(name)->value))
        << name;
  }
}

TEST(StoredModelTest, CompressedRoundTripsBitExactWithCalibration) {
  const std::string path = ::testing::TempDir() + "/stored_compressed.dsar";
  nn::ParameterStore params;
  util::Rng rng(11);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  CalibrateLikeTrainer(&params);
  PackOptions options;
  options.encoding = ParamEncoding::kCompressed;
  ASSERT_TRUE(PackModelArtifact(model, params, nullptr, options, path).ok());

  std::shared_ptr<const StoredModel> stored;
  ASSERT_TRUE(StoredModel::Open(path, &stored).ok());
  ASSERT_EQ(stored->params().parameters().size(), params.parameters().size());
  for (const auto& p : params.parameters()) {
    const nn::Parameter* got = stored->params().Find(p->name);
    ASSERT_NE(got, nullptr) << p->name;
    EXPECT_TRUE(BitEqual(got->value, p->value)) << p->name;
    EXPECT_FALSE(got->value.is_view()) << p->name;  // decoded, owned
    EXPECT_EQ(got->act_absmax, p->act_absmax) << p->name;
  }
}

TEST(StoredModelTest, EaSectionServesTheFittedBaseline) {
  std::vector<data::PredictionItem> items;
  for (int area = 0; area < 4; ++area) {
    data::PredictionItem item;
    item.area = area;
    item.t = 480;
    item.gap = 2.0f * static_cast<float>(area) + 1.0f;
    items.push_back(item);
  }
  baselines::EmpiricalAverage ea;
  ea.Fit(items);

  const std::string path = ::testing::TempDir() + "/stored_ea.dsar";
  PackTinyArtifact(path, ParamEncoding::kRaw, &ea);
  std::shared_ptr<const StoredModel> stored;
  ASSERT_TRUE(StoredModel::Open(path, &stored).ok());
  ASSERT_NE(stored->baseline(), nullptr);
  for (int area = 0; area < 4; ++area) {
    for (int t : {0, 480, 1439}) {
      EXPECT_EQ(stored->baseline()->Predict(area, t), ea.Predict(area, t))
          << "area " << area << " t " << t;
    }
  }
}

TEST(StoredModelTest, CheckpointMissingAParameterIsFailedPrecondition) {
  // A checkpoint captured from a no-weather model cannot cover the
  // parameters of a weather-enabled rebuild: pack must refuse by name
  // rather than serve silent random initialization.
  nn::ParameterStore params;
  util::Rng rng(31);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &params, &rng);
  core::TrainerCheckpoint ck;
  for (const auto& p : params.parameters()) {
    nn::NamedTensor nt;
    nt.name = p->name;
    nt.value = p->value;
    ck.params.push_back(std::move(nt));
  }

  core::DeepSDConfig wants_weather = TinyConfig();
  wants_weather.use_weather = true;
  PackOptions options;
  const util::Status st = PackCheckpointArtifact(
      ck, wants_weather, core::DeepSDModel::Mode::kBasic, nullptr, options,
      ::testing::TempDir() + "/stored_missing.dsar");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace store
}  // namespace deepsd
