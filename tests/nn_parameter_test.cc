#include "src/nn/parameter.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "core/model.h"
#include "store/pack.h"
#include "store/stored_model.h"

namespace deepsd {
namespace nn {
namespace {

TEST(ParameterStoreTest, CreateFindAndReuse) {
  ParameterStore store;
  util::Rng rng(1);
  Parameter* p = store.Create("a", 2, 3, Init::kGlorotUniform, &rng);
  EXPECT_EQ(p->value.rows(), 2);
  EXPECT_EQ(p->value.cols(), 3);
  EXPECT_EQ(store.Find("a"), p);
  EXPECT_EQ(store.Find("missing"), nullptr);
  // Same name + shape → same parameter, values untouched.
  float before = p->value.at(0, 0);
  Parameter* q = store.Create("a", 2, 3, Init::kGlorotUniform, &rng);
  EXPECT_EQ(p, q);
  EXPECT_FLOAT_EQ(p->value.at(0, 0), before);
  EXPECT_EQ(store.NumWeights(), 6u);
}

TEST(ParameterStoreTest, InitializersBehave) {
  util::Rng rng(2);
  Tensor z(3, 3);
  InitTensor(&z, Init::kZero, &rng);
  EXPECT_DOUBLE_EQ(z.SquaredNorm(), 0.0);

  Tensor g(50, 50);
  InitTensor(&g, Init::kGlorotUniform, &rng);
  double limit = std::sqrt(6.0 / 100);
  for (float v : g.flat()) {
    EXPECT_LE(std::abs(v), limit + 1e-6);
  }
  EXPECT_GT(g.SquaredNorm(), 0.0);

  Tensor e(10, 10);
  InitTensor(&e, Init::kEmbedding, &rng);
  for (float v : e.flat()) EXPECT_LE(std::abs(v), 0.05f + 1e-6f);
}

TEST(ParameterStoreTest, ZeroGrads) {
  ParameterStore store;
  util::Rng rng(3);
  Parameter* p = store.Create("a", 2, 2, Init::kGlorotUniform, &rng);
  p->grad.Fill(3.0f);
  store.ZeroGrads();
  EXPECT_DOUBLE_EQ(p->grad.SquaredNorm(), 0.0);
}

TEST(ParameterStoreTest, SetFrozenByPrefix) {
  ParameterStore store;
  util::Rng rng(4);
  store.Create("weather.fc1.w", 1, 1, Init::kZero, &rng);
  store.Create("weather.fc2.w", 1, 1, Init::kZero, &rng);
  store.Create("traffic.fc1.w", 1, 1, Init::kZero, &rng);
  store.SetFrozen("weather.", true);
  EXPECT_TRUE(store.Find("weather.fc1.w")->frozen);
  EXPECT_TRUE(store.Find("weather.fc2.w")->frozen);
  EXPECT_FALSE(store.Find("traffic.fc1.w")->frozen);
}

// A tiny basic model packed into a raw DSAR1 artifact: the only model
// file format, and the source every warm start copies from.
std::string PackTinyModel(const core::DeepSDConfig& config, uint64_t seed,
                          const char* tag) {
  const std::string path = ::testing::TempDir() + "/params_" + tag + "_" +
                           std::to_string(::getpid()) + ".dsar";
  ParameterStore params;
  util::Rng rng(seed);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &params,
                          &rng);
  const util::Status st = store::PackModelArtifact(
      model, params, nullptr, store::PackOptions(), path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

core::DeepSDConfig TinyConfig() {
  core::DeepSDConfig config;
  config.num_areas = 3;
  config.use_weather = false;
  config.use_traffic = false;
  return config;
}

TEST(ParameterStoreTest, SaveLoadRoundTrip) {
  const std::string path = PackTinyModel(TinyConfig(), 5, "roundtrip");
  std::shared_ptr<const store::StoredModel> stored;
  ASSERT_TRUE(store::StoredModel::Open(path, &stored).ok());

  // A fresh store of the same structure, perturbed, then loaded back.
  ParameterStore store;
  util::Rng rng(99);
  core::DeepSDModel model(TinyConfig(), core::DeepSDModel::Mode::kBasic,
                          &store, &rng);
  for (auto& p : store.parameters()) p->value.Fill(0.0f);
  EXPECT_EQ(store.CopyFrom(stored->params()),
            static_cast<int>(store.parameters().size()));
  for (const auto& p : store.parameters()) {
    const Parameter* src = stored->params().Find(p->name);
    ASSERT_NE(src, nullptr) << p->name;
    // The copy is owned and writable even though the source is a view
    // into the mapping.
    EXPECT_FALSE(p->value.is_view()) << p->name;
    EXPECT_EQ(std::memcmp(p->value.data(), src->value.data(),
                          p->value.size() * sizeof(float)),
              0)
        << p->name;
  }
  std::filesystem::remove(path);
}

TEST(ParameterStoreTest, LoadIgnoresUnknownAndMismatched) {
  // Warm-starting a different structure from an artifact copies only the
  // tensors whose name and shape match: more areas reshape the area
  // embedding, and the weather block is absent from the file.
  const std::string path = PackTinyModel(TinyConfig(), 6, "mismatch");
  std::shared_ptr<const store::StoredModel> stored;
  ASSERT_TRUE(store::StoredModel::Open(path, &stored).ok());

  core::DeepSDConfig wider = TinyConfig();
  wider.num_areas = 5;
  wider.use_weather = true;
  ParameterStore reader;
  util::Rng rng(7);
  core::DeepSDModel model(wider, core::DeepSDModel::Mode::kBasic, &reader,
                          &rng);
  const Tensor area_before = reader.Find("id.area.embed")->value;
  const Tensor weather_before = reader.Find("weather.fc1.w")->value;
  const int copied = reader.CopyFrom(stored->params());
  EXPECT_GT(copied, 0);
  EXPECT_LT(copied, static_cast<int>(reader.parameters().size()));

  const Tensor& sd = reader.Find("sd.fc1.w")->value;
  const Tensor& sd_file = stored->params().Find("sd.fc1.w")->value;
  EXPECT_EQ(std::memcmp(sd.data(), sd_file.data(), sd.size() * sizeof(float)),
            0);
  // Mismatched and unknown tensors keep their own initialization.
  const Tensor& area = reader.Find("id.area.embed")->value;
  EXPECT_EQ(std::memcmp(area.data(), area_before.data(),
                        area.size() * sizeof(float)),
            0);
  const Tensor& weather = reader.Find("weather.fc1.w")->value;
  EXPECT_EQ(std::memcmp(weather.data(), weather_before.data(),
                        weather.size() * sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(ParameterStoreTest, CloneIsDeepCopy) {
  ParameterStore store;
  util::Rng rng(7);
  Parameter* p = store.Create("a", 1, 1, Init::kGlorotUniform, &rng);
  p->value.at(0, 0) = 42.0f;
  auto clone = store.Clone();
  clone->Find("a")->value.at(0, 0) = 0.0f;
  EXPECT_FLOAT_EQ(p->value.at(0, 0), 42.0f);
}

TEST(ParameterStoreTest, CopyFromMatchesByNameAndShape) {
  util::Rng rng(8);
  ParameterStore src, dst;
  src.Create("a", 1, 2, Init::kGlorotUniform, &rng)->value.Fill(7.0f);
  src.Create("b", 2, 2, Init::kGlorotUniform, &rng);
  dst.Create("a", 1, 2, Init::kZero, &rng);
  dst.Create("b", 3, 3, Init::kZero, &rng);  // shape mismatch
  dst.Create("c", 1, 1, Init::kZero, &rng);  // absent in src
  EXPECT_EQ(dst.CopyFrom(src), 1);
  EXPECT_FLOAT_EQ(dst.Find("a")->value.at(0, 1), 7.0f);
}

TEST(ParameterStoreTest, AverageFrom) {
  util::Rng rng(9);
  ParameterStore base;
  base.Create("w", 1, 2, Init::kZero, &rng);
  auto s1 = base.Clone();
  auto s2 = base.Clone();
  s1->Find("w")->value.at(0, 0) = 2.0f;
  s1->Find("w")->value.at(0, 1) = 4.0f;
  s2->Find("w")->value.at(0, 0) = 6.0f;
  s2->Find("w")->value.at(0, 1) = 0.0f;
  base.AverageFrom({s1.get(), s2.get()});
  EXPECT_FLOAT_EQ(base.Find("w")->value.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(base.Find("w")->value.at(0, 1), 2.0f);
}

}  // namespace
}  // namespace nn
}  // namespace deepsd
