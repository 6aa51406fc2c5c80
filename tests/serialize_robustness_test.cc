// Robustness sweeps for the binary loaders: corrupt or truncated files
// must produce error Statuses (or load nothing), never crashes or
// absurd allocations. These guard the CLI tools' untrusted-input paths.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "src/core/model.h"
#include "src/data/serialize.h"
#include "src/nn/parameter.h"
#include "src/store/pack.h"
#include "src/store/stored_model.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace deepsd {
namespace {

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class RobustnessTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("deepsd_robust_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_P(RobustnessTest, DatasetLoaderSurvivesTruncation) {
  data::OrderDataset ds = deepsd::testing::MakeMicroDataset();
  ASSERT_TRUE(data::SaveDataset(ds, Path("d.bin")).ok());
  std::vector<char> bytes = ReadAll(Path("d.bin"));
  util::Rng rng(GetParam());
  // Truncate at a random point (never the full size).
  size_t cut = 1 + rng.UniformInt(bytes.size() - 1);
  std::vector<char> truncated(bytes.begin(),
                              bytes.begin() + static_cast<long>(cut));
  WriteAll(Path("t.bin"), truncated);
  data::OrderDataset out;
  util::Status st = data::LoadDataset(Path("t.bin"), &out);
  // Must return (usually an error); a truncation landing exactly on a
  // record boundary may load a prefix, which is also acceptable — the
  // point is no crash and no runaway allocation.
  (void)st;
}

TEST_P(RobustnessTest, DatasetLoaderSurvivesByteFlips) {
  data::OrderDataset ds = deepsd::testing::MakeMicroDataset();
  ASSERT_TRUE(data::SaveDataset(ds, Path("d.bin")).ok());
  std::vector<char> bytes = ReadAll(Path("d.bin"));
  util::Rng rng(GetParam() * 977 + 3);
  for (int flips = 0; flips < 8; ++flips) {
    bytes[rng.UniformInt(bytes.size())] ^=
        static_cast<char>(1 << rng.UniformInt(uint64_t{8}));
  }
  WriteAll(Path("c.bin"), bytes);
  data::OrderDataset out;
  util::Status st = data::LoadDataset(Path("c.bin"), &out);
  // Either a clean error or a successfully validated load.
  if (st.ok()) {
    EXPECT_GT(out.num_areas(), 0);
  }
}

TEST_P(RobustnessTest, ParameterLoaderSurvivesCorruption) {
  // Model parameters load from a DSAR1 artifact (StoredModel::Open); a
  // warm start then copies them into a live store.
  core::DeepSDConfig config;
  config.num_areas = 2;
  config.use_weather = false;
  config.use_traffic = false;
  nn::ParameterStore store;
  util::Rng init_rng(1);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &store,
                          &init_rng);
  ASSERT_TRUE(store::PackModelArtifact(model, store, nullptr,
                                       store::PackOptions(), Path("p.dsar"))
                  .ok());
  std::vector<char> bytes = ReadAll(Path("p.dsar"));
  util::Rng rng(GetParam() * 31 + 7);
  size_t cut = 1 + rng.UniformInt(bytes.size() - 1);
  std::vector<char> mangled(bytes.begin(),
                            bytes.begin() + static_cast<long>(cut));
  for (int flips = 0; flips < 4 && !mangled.empty(); ++flips) {
    mangled[rng.UniformInt(mangled.size())] ^= 0x5A;
  }
  WriteAll(Path("pc.dsar"), mangled);
  std::shared_ptr<const store::StoredModel> stored;
  util::Status st = store::StoredModel::Open(Path("pc.dsar"), &stored);
  if (st.ok()) {
    // Whatever survives validation is a complete model, never a partial
    // one.
    EXPECT_EQ(store.CopyFrom(stored->params()),
              static_cast<int>(store.parameters().size()));
  } else {
    EXPECT_TRUE(st.code() == util::Status::Code::kInvalidArgument ||
                st.code() == util::Status::Code::kIoError ||
                st.code() == util::Status::Code::kFailedPrecondition)
        << st.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(CorruptionSeeds, RobustnessTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace deepsd
