// Codec-level tests for the DSAR1 section formats (store/stored_model.h):
// the manifest, the params index, and the dense empirical-average section.
// Round trips must be exact and deterministic; every malformed byte string
// must come back as a typed util::Status — never UB, never an abort — per
// the robustness contract (docs/robustness.md, docs/model_store.md).

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/empirical_average.h"
#include "core/model.h"
#include "data/types.h"
#include "nn/parameter.h"
#include "store/format.h"
#include "store/stored_model.h"
#include "util/rng.h"
#include "gtest/gtest.h"

namespace deepsd {
namespace store {
namespace {

TEST(StoreManifestTest, RoundTripIsExactAndDeterministic) {
  Manifest m;
  m.version_id = "fmt-test-v7";
  m.mode = core::DeepSDModel::Mode::kAdvanced;
  m.config.num_areas = 123;
  m.config.hidden1 = 96;
  m.config.use_traffic = false;
  const std::vector<char> bytes = EncodeManifest(m);

  Manifest back;
  ASSERT_TRUE(DecodeManifest(bytes.data(), bytes.size(), &back).ok());
  EXPECT_EQ(back.version_id, m.version_id);
  EXPECT_EQ(back.mode, m.mode);
  EXPECT_EQ(back.config.num_areas, 123);
  EXPECT_EQ(back.config.hidden1, 96);
  EXPECT_FALSE(back.config.use_traffic);
  // Equal manifests encode to equal bytes (artifact diffs stay clean).
  EXPECT_EQ(EncodeManifest(m), bytes);
}

TEST(StoreManifestTest, TruncationAtEveryPrefixIsATypedError) {
  Manifest m;
  m.version_id = "truncate-me";
  const std::vector<char> bytes = EncodeManifest(m);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Manifest out;
    const util::Status st = DecodeManifest(bytes.data(), cut, &out);
    ASSERT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
  }
}

TEST(StoreManifestTest, TrailingBytesAreRejected) {
  Manifest m;
  std::vector<char> bytes = EncodeManifest(m);
  bytes.push_back('\0');
  Manifest out;
  const util::Status st = DecodeManifest(bytes.data(), bytes.size(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
}

/// A small parameter store shaped like real model weights: one GEMM-sized
/// matrix (quantizable once calibrated), one embedding, one bias row.
nn::ParameterStore MakeParams() {
  nn::ParameterStore params;
  util::Rng rng(17);
  nn::Parameter* w =
      params.Create("fc1.w", 24, 16, nn::Init::kGlorotUniform, &rng);
  w->act_absmax = 1.5f;  // calibrated: kQuant stores this one as int8
  params.Create("embed", 8, 4, nn::Init::kEmbedding, &rng);
  params.Create("fc1.b", 1, 16, nn::Init::kZero, &rng);
  return params;
}

TEST(StoreParamsIndexTest, RoundTripsEveryEncoding) {
  const nn::ParameterStore params = MakeParams();
  for (ParamEncoding enc :
       {ParamEncoding::kRaw, ParamEncoding::kCompressed,
        ParamEncoding::kQuant}) {
    std::vector<char> idx, blob;
    EncodeParamsSections(params, enc, &idx, &blob);
    std::vector<TensorRecord> records;
    ASSERT_TRUE(
        DecodeParamsIndex(idx.data(), idx.size(), blob.size(), &records)
            .ok())
        << "encoding " << static_cast<int>(enc);
    ASSERT_EQ(records.size(), params.parameters().size());
    for (size_t i = 0; i < records.size(); ++i) {
      const nn::Parameter& p = *params.parameters()[i];
      EXPECT_EQ(records[i].name, p.name);
      EXPECT_EQ(records[i].rows, p.value.rows());
      EXPECT_EQ(records[i].cols, p.value.cols());
      EXPECT_LE(records[i].data_off + records[i].data_bytes, blob.size());
      // Payloads are 64-byte aligned within the blob so raw views are
      // cacheline-aligned in the mapping.
      EXPECT_EQ(records[i].data_off % 64, 0u);
    }
  }
}

TEST(StoreParamsIndexTest, RecordsPastTheBlobAreRejected) {
  const nn::ParameterStore params = MakeParams();
  std::vector<char> idx, blob;
  EncodeParamsSections(params, ParamEncoding::kRaw, &idx, &blob);
  std::vector<TensorRecord> records;
  // A blob one byte too short puts the last record out of bounds: the
  // decoder must refuse rather than hand out a wild pointer later.
  const util::Status st =
      DecodeParamsIndex(idx.data(), idx.size(), blob.size() - 1, &records);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
}

TEST(StoreParamsIndexTest, TruncatedIndexIsATypedError) {
  const nn::ParameterStore params = MakeParams();
  std::vector<char> idx, blob;
  EncodeParamsSections(params, ParamEncoding::kRaw, &idx, &blob);
  for (size_t cut : {size_t{0}, size_t{3}, idx.size() / 2, idx.size() - 1}) {
    std::vector<TensorRecord> records;
    const util::Status st =
        DecodeParamsIndex(idx.data(), cut, blob.size(), &records);
    ASSERT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
  }
}

/// Fits an EmpiricalAverage that exercises every fallback tier: area 0 has
/// cells, area 1 only an area mean (different minute than queried), area 2
/// is never seen (global-mean fallback).
baselines::EmpiricalAverage MakeFittedEa() {
  std::vector<data::PredictionItem> items;
  auto add = [&](int area, int t, float gap) {
    data::PredictionItem item;
    item.area = area;
    item.t = t;
    item.gap = gap;
    items.push_back(item);
  };
  add(0, 480, 3.0f);
  add(0, 480, 5.0f);
  add(0, 481, 7.0f);
  add(1, 100, 11.0f);
  baselines::EmpiricalAverage ea;
  ea.Fit(items);
  return ea;
}

TEST(StoreEaSectionTest, MappedTablesMatchTheFittedBaselineBitForBit) {
  std::vector<baselines::EmpiricalAverage> fits;
  fits.push_back(MakeFittedEa());  // areas 0 and 1
  fits.emplace_back();
  fits.back().Fit({});  // nothing fitted: every answer is 0
  // Packed areas past the fitted range are unseen, and fitted areas past
  // the packed range are dropped: either way the global mean answers.
  const int unseen_area = 7;
  for (const baselines::EmpiricalAverage& ea : fits) {
    for (int num_areas : {1, 2, 3, 5}) {
      const std::vector<char> bytes = EncodeEaSection(ea, num_areas);
      baselines::EmpiricalAverage mapped;
      ASSERT_TRUE(DecodeEaSection(bytes.data(), bytes.size(), &mapped).ok());
      ASSERT_EQ(mapped.tables().num_areas, num_areas);
      for (int area = 0; area <= num_areas + 1; ++area) {
        for (int t = 0; t < data::kMinutesPerDay; ++t) {
          const float want =
              ea.Predict(area < num_areas ? area : unseen_area, t);
          const float got = mapped.Predict(area, t);
          ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
              << "fitted areas " << ea.tables().num_areas << " num_areas "
              << num_areas << " area " << area << " t " << t << ": fitted "
              << want << " mapped " << got;
        }
      }
    }
  }
}

TEST(StoreEaSectionTest, MalformedSectionBytesAreTypedErrors) {
  const std::vector<char> bytes = EncodeEaSection(MakeFittedEa(), 3);
  baselines::EmpiricalAverage mapped;

  // Truncations, from an empty section up to one missing byte.
  for (size_t cut :
       {size_t{0}, sizeof(EaSectionHeader) - 1, bytes.size() - 4,
        bytes.size() - 1}) {
    const util::Status st = DecodeEaSection(bytes.data(), cut, &mapped);
    ASSERT_FALSE(st.ok()) << "prefix of " << cut << " bytes accepted";
    EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
  }

  // A header whose table sizes disagree with the payload.
  std::vector<char> lying = bytes;
  EaSectionHeader header;
  std::memcpy(&header, lying.data(), sizeof(header));
  header.num_areas += 1;
  std::memcpy(lying.data(), &header, sizeof(header));
  const util::Status st = DecodeEaSection(lying.data(), lying.size(), &mapped);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace store
}  // namespace deepsd
