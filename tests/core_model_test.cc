#include "src/core/model.h"

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/nn/grad_check.h"
#include "tests/test_util.h"

namespace deepsd {
namespace core {
namespace {

// Small window keeps the gradient checks fast while exercising every block.
constexpr int kL = 6;

class ModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = deepsd::testing::MakeSmallCity(4, 10, 777);
    feature::FeatureConfig fc;
    fc.window = kL;
    // Normalized features keep every input O(1): the gradient checks below
    // compare float32 finite differences, which need a well-scaled loss.
    fc.normalize = true;
    assembler_ = std::make_unique<feature::FeatureAssembler>(&ds_, fc, 0, 8);
    items_ = data::MakeItems(ds_, 8, 10, 400, 1200, 200);
    ASSERT_FALSE(items_.empty());
  }

  DeepSDConfig Config() const {
    DeepSDConfig config;
    config.num_areas = ds_.num_areas();
    config.window = kL;
    return config;
  }

  std::vector<feature::ModelInput> Assemble(bool advanced, size_t count) const {
    std::vector<feature::ModelInput> out;
    for (size_t i = 0; i < std::min(count, items_.size()); ++i) {
      out.push_back(advanced ? assembler_->AssembleAdvanced(items_[i])
                             : assembler_->AssembleBasic(items_[i]));
    }
    return out;
  }

  data::OrderDataset ds_;
  std::unique_ptr<feature::FeatureAssembler> assembler_;
  std::vector<data::PredictionItem> items_;
};

TEST_F(ModelTest, BasicForwardShape) {
  nn::ParameterStore store;
  util::Rng rng(1);
  DeepSDModel model(Config(), DeepSDModel::Mode::kBasic, &store, &rng);
  auto inputs = Assemble(false, 5);
  Batch batch = MakeBatch(VectorSource(inputs), 0, inputs.size());
  nn::Graph g;
  nn::NodeId pred = model.Forward(&g, batch);
  EXPECT_EQ(g.value(pred).rows(), 5);
  EXPECT_EQ(g.value(pred).cols(), 1);
}

TEST_F(ModelTest, AdvancedForwardShape) {
  nn::ParameterStore store;
  util::Rng rng(2);
  DeepSDModel model(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);
  auto inputs = Assemble(true, 7);
  Batch batch = MakeBatch(VectorSource(inputs), 0, inputs.size());
  nn::Graph g;
  nn::NodeId pred = model.Forward(&g, batch);
  EXPECT_EQ(g.value(pred).rows(), 7);
  EXPECT_EQ(g.value(pred).cols(), 1);
}

TEST_F(ModelTest, AdvancedTrainingGraphFitsNodeReserve) {
  // The graph reserves its node slots once; the largest tape DeepSD
  // builds (advanced, default config, training with dropout, plus the
  // loss) must fit.
  DeepSDConfig config;
  config.num_areas = ds_.num_areas();
  feature::FeatureConfig fc;
  fc.window = config.window;
  feature::FeatureAssembler assembler(&ds_, fc, 0, 8);
  std::vector<feature::ModelInput> inputs;
  for (size_t i = 0; i < std::min<size_t>(4, items_.size()); ++i) {
    inputs.push_back(assembler.AssembleAdvanced(items_[i]));
  }
  nn::ParameterStore store;
  util::Rng rng(4);
  DeepSDModel model(config, DeepSDModel::Mode::kAdvanced, &store, &rng);
  Batch batch = MakeBatch(VectorSource(inputs), 0, inputs.size());
  nn::Graph g(&rng);
  g.set_training(true);
  g.MseLoss(model.Forward(&g, batch), batch.target);
  EXPECT_LE(g.num_nodes(), nn::Graph::kReservedNodes);
}

struct VariantCase {
  const char* name;
  DeepSDModel::Mode mode;
  bool residual;
  bool embedding;
  bool weather;
  bool traffic;
};

// Without this gtest prints a case as its raw bytes, pointers included, and
// the test names it lists would change with every build and run.
void PrintTo(const VariantCase& vc, std::ostream* os) { *os << vc.name; }

class ModelVariantTest : public ModelTest,
                         public ::testing::WithParamInterface<VariantCase> {};

// Every configuration the paper's ablations use must build, run forward,
// and pass a full-network gradient check.
TEST_P(ModelVariantTest, BuildsRunsAndGradientsCheck) {
  const VariantCase& vc = GetParam();
  DeepSDConfig config = Config();
  config.use_residual = vc.residual;
  config.use_embedding = vc.embedding;
  config.use_weather = vc.weather;
  config.use_traffic = vc.traffic;
  // Keep time vocab small in one-hot mode so the check stays fast.
  nn::ParameterStore store;
  util::Rng rng(3);
  DeepSDModel model(config, vc.mode, &store, &rng);
  // Zero-initialized residual branches would park every LReL input exactly
  // on the kink, where finite differences are undefined; nudge all weights
  // off it.
  for (auto& p : store.parameters()) {
    for (float& v : p->value.flat()) {
      v += static_cast<float>(rng.Uniform(0.005, 0.02)) *
           (rng.Bernoulli(0.5) ? 1.0f : -1.0f);
    }
  }

  bool advanced = vc.mode == DeepSDModel::Mode::kAdvanced;
  auto inputs = Assemble(advanced, 3);
  Batch batch = MakeBatch(VectorSource(inputs), 0, inputs.size());
  // Small targets keep the float32 loss ~O(1); raw gaps would make the
  // central-difference signal vanish below the loss value's own ULP.
  for (int r = 0; r < batch.target.rows(); ++r) {
    batch.target.at(r, 0) = 0.1f * static_cast<float>(r + 1);
  }

  auto loss_fn = [&]() {
    nn::Graph g;
    g.set_training(false);  // deterministic (no dropout)
    nn::NodeId pred = model.Forward(&g, batch);
    nn::NodeId loss = g.MseLoss(pred, batch.target);
    g.Backward(loss);
    return static_cast<double>(g.value(loss).at(0, 0));
  };
  loss_fn();
  nn::GradCheckResult result = nn::CheckGradients(&store, loss_fn, 2e-3, 4);
  EXPECT_GT(result.checked, 0u);
  // Allow at most one large relative error: ±eps occasionally straddles an
  // LReL kink, where finite differences are simply wrong (a single hit can
  // reach rel ≈ 1 because the two slopes differ 1000x).
  size_t above = static_cast<size_t>(
      result.FractionAbove(0.1) * static_cast<double>(result.rel_errors.size()) +
      0.5);
  EXPECT_LE(above, 1u) << vc.name << " worst: " << result.worst_param
                       << " max_rel: " << result.max_rel_error << " ("
                       << result.rel_errors.size() << " entries)";
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ModelVariantTest,
    ::testing::Values(
        VariantCase{"basic_full", DeepSDModel::Mode::kBasic, true, true, true,
                    true},
        VariantCase{"basic_no_residual", DeepSDModel::Mode::kBasic, false,
                    true, true, true},
        VariantCase{"basic_onehot", DeepSDModel::Mode::kBasic, true, false,
                    true, true},
        VariantCase{"basic_no_env", DeepSDModel::Mode::kBasic, true, true,
                    false, false},
        VariantCase{"basic_weather_only", DeepSDModel::Mode::kBasic, true,
                    true, true, false},
        VariantCase{"advanced_full", DeepSDModel::Mode::kAdvanced, true, true,
                    true, true},
        VariantCase{"advanced_no_residual", DeepSDModel::Mode::kAdvanced,
                    false, true, true, true},
        VariantCase{"advanced_no_env", DeepSDModel::Mode::kAdvanced, true,
                    true, false, false}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      return info.param.name;
    });

TEST_F(ModelTest, PredictClampsAtZero) {
  nn::ParameterStore store;
  util::Rng rng(5);
  DeepSDConfig config = Config();
  DeepSDModel model(config, DeepSDModel::Mode::kBasic, &store, &rng);
  // Force strongly negative outputs through the head bias.
  store.Find("head.out.b")->value.at(0, 0) = -100.0f;
  auto inputs = Assemble(false, 6);
  std::vector<float> preds = model.Predict(inputs);
  for (float p : preds) EXPECT_GE(p, 0.0f);

  DeepSDConfig unclamped = config;
  unclamped.clamp_nonnegative = false;
  DeepSDModel model2(unclamped, DeepSDModel::Mode::kBasic, &store, &rng);
  std::vector<float> raw = model2.Predict(inputs);
  for (float p : raw) EXPECT_LT(p, 0.0f);
}

TEST_F(ModelTest, CombiningWeightsAreDistribution) {
  nn::ParameterStore store;
  util::Rng rng(6);
  DeepSDModel model(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);
  for (int signal = 0; signal < 3; ++signal) {
    auto p = model.CombiningWeights(2, 6, signal);
    float sum = 0;
    for (float w : p) {
      EXPECT_GT(w, 0.0f);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST_F(ModelTest, ParameterReuseAcrossRebuilds) {
  nn::ParameterStore store;
  util::Rng rng(7);
  DeepSDModel a(Config(), DeepSDModel::Mode::kBasic, &store, &rng);
  size_t count = store.parameters().size();
  // Rebuilding the same topology adds no parameters.
  DeepSDModel b(Config(), DeepSDModel::Mode::kBasic, &store, &rng);
  EXPECT_EQ(store.parameters().size(), count);
  // Extending with mode change adds the new blocks but keeps shared ones.
  DeepSDModel c(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);
  EXPECT_GT(store.parameters().size(), count);
  EXPECT_NE(store.Find("id.area.embed"), nullptr);
}

TEST_F(ModelTest, EnvironmentBlocksChangeParameterSet) {
  util::Rng rng(8);
  DeepSDConfig no_env = Config();
  no_env.use_weather = false;
  no_env.use_traffic = false;
  nn::ParameterStore store;
  DeepSDModel model(no_env, DeepSDModel::Mode::kBasic, &store, &rng);
  EXPECT_EQ(store.Find("weather.fc1.w"), nullptr);
  EXPECT_EQ(store.Find("traffic.fc1.w"), nullptr);

  DeepSDConfig with_env = Config();
  nn::ParameterStore store2;
  DeepSDModel model2(with_env, DeepSDModel::Mode::kBasic, &store2, &rng);
  EXPECT_NE(store2.Find("weather.fc1.w"), nullptr);
  EXPECT_NE(store2.Find("traffic.fc1.w"), nullptr);
}

TEST_F(ModelTest, AreaEmbeddingAccessible) {
  nn::ParameterStore store;
  util::Rng rng(9);
  DeepSDModel model(Config(), DeepSDModel::Mode::kBasic, &store, &rng);
  ASSERT_NE(model.area_embedding(), nullptr);
  EXPECT_EQ(model.area_embedding()->vocab(), ds_.num_areas());

  DeepSDConfig onehot = Config();
  onehot.use_embedding = false;
  nn::ParameterStore store2;
  DeepSDModel model2(onehot, DeepSDModel::Mode::kBasic, &store2, &rng);
  EXPECT_EQ(model2.area_embedding(), nullptr);
}

TEST_F(ModelTest, BatchSizeInvariantPredictions) {
  // Inference must not depend on how the inputs are batched.
  nn::ParameterStore store;
  util::Rng rng(11);
  DeepSDModel model(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);
  auto inputs = Assemble(true, 7);
  std::vector<float> one_by_one = model.Predict(inputs, /*batch_size=*/1);
  std::vector<float> all_at_once = model.Predict(inputs, /*batch_size=*/256);
  std::vector<float> threes = model.Predict(inputs, /*batch_size=*/3);
  ASSERT_EQ(one_by_one.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_FLOAT_EQ(one_by_one[i], all_at_once[i]) << i;
    EXPECT_FLOAT_EQ(one_by_one[i], threes[i]) << i;
  }
}

TEST_F(ModelTest, DeterministicPredictions) {
  nn::ParameterStore store;
  util::Rng rng(10);
  DeepSDModel model(Config(), DeepSDModel::Mode::kAdvanced, &store, &rng);
  auto inputs = Assemble(true, 4);
  std::vector<float> p1 = model.Predict(inputs);
  std::vector<float> p2 = model.Predict(inputs);
  EXPECT_EQ(p1, p2);
}

}  // namespace
}  // namespace core
}  // namespace deepsd
