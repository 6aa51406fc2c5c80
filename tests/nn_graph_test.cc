#include "src/nn/graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/grad_check.h"

namespace deepsd {
namespace nn {
namespace {

Tensor RandomTensor(int rows, int cols, util::Rng* rng, double scale = 1.0) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng->Uniform(-scale, scale));
  }
  return t;
}

// ---------- forward-value tests ----------

TEST(GraphForwardTest, MatMulAndBias) {
  Graph g;
  Tensor x(1, 2);
  x.at(0, 0) = 1;
  x.at(0, 1) = 2;
  Tensor w(2, 2);
  w.at(0, 0) = 1;
  w.at(0, 1) = 2;
  w.at(1, 0) = 3;
  w.at(1, 1) = 4;
  Tensor b(1, 2);
  b.at(0, 0) = 10;
  b.at(0, 1) = 20;
  NodeId y = g.AddBias(g.MatMul(g.Input(x), g.Input(w)), g.Input(b));
  EXPECT_FLOAT_EQ(g.value(y).at(0, 0), 17);
  EXPECT_FLOAT_EQ(g.value(y).at(0, 1), 30);
}

TEST(GraphForwardTest, ConcatAndSlice) {
  Graph g;
  NodeId a = g.Input(Tensor::Row({1, 2}));
  NodeId b = g.Input(Tensor::Row({3}));
  NodeId c = g.Concat({a, b});
  ASSERT_EQ(g.value(c).cols(), 3);
  EXPECT_FLOAT_EQ(g.value(c).at(0, 2), 3);
  // Columns [1, 3), selected by a 0/1 matrix.
  Tensor select(3, 2);
  select.at(1, 0) = 1;
  select.at(2, 1) = 1;
  NodeId s = g.MatMul(c, g.Input(select));
  EXPECT_FLOAT_EQ(g.value(s).at(0, 0), 2);
  EXPECT_FLOAT_EQ(g.value(s).at(0, 1), 3);
}

TEST(GraphForwardTest, LeakyReluValues) {
  Graph g;
  NodeId y = g.LeakyRelu(g.Input(Tensor::Row({-2.0f, 0.0f, 3.0f})), 0.001f);
  EXPECT_FLOAT_EQ(g.value(y).at(0, 0), -0.002f);
  EXPECT_FLOAT_EQ(g.value(y).at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(g.value(y).at(0, 2), 3.0f);
}

TEST(GraphForwardTest, SoftmaxRowsSumToOne) {
  Graph g;
  util::Rng rng(3);
  NodeId y = g.Softmax(g.Input(RandomTensor(4, 7, &rng, 3.0)));
  const Tensor& v = g.value(y);
  for (int r = 0; r < v.rows(); ++r) {
    float sum = 0;
    for (int c = 0; c < v.cols(); ++c) {
      EXPECT_GT(v.at(r, c), 0.0f);
      sum += v.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(GraphForwardTest, SoftmaxStableForLargeInputs) {
  Graph g;
  NodeId y = g.Softmax(g.Input(Tensor::Row({1000.0f, 1001.0f})));
  EXPECT_FALSE(std::isnan(g.value(y).at(0, 0)));
  EXPECT_NEAR(g.value(y).at(0, 0) + g.value(y).at(0, 1), 1.0f, 1e-5);
}

TEST(GraphForwardTest, GroupWeightedSumValues) {
  Graph g;
  // p = [0.25, 0.75], h = [g0: (1,2), g1: (3,4)] → E = (2.5, 3.5).
  NodeId p = g.Input(Tensor::Row({0.25f, 0.75f}));
  NodeId h = g.Input(Tensor::Row({1, 2, 3, 4}));
  NodeId e = g.GroupWeightedSum(p, h, 2);
  EXPECT_FLOAT_EQ(g.value(e).at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(g.value(e).at(0, 1), 3.5f);
}

TEST(GraphForwardTest, DropoutIdentityInEval) {
  util::Rng rng(1);
  Graph g(&rng);
  g.set_training(false);
  NodeId x = g.Input(Tensor::Row({1, 2, 3}));
  NodeId y = g.Dropout(x, 0.5f);
  EXPECT_EQ(x, y);  // pass-through node
}

TEST(GraphForwardTest, DropoutZeroesAndRescales) {
  util::Rng rng(5);
  Graph g(&rng);
  g.set_training(true);
  Tensor big(1, 10000);
  big.Fill(1.0f);
  NodeId y = g.Dropout(g.Input(big), 0.5f);
  const Tensor& v = g.value(y);
  int zeros = 0;
  double sum = 0;
  for (float x : v.flat()) {
    EXPECT_TRUE(x == 0.0f || std::abs(x - 2.0f) < 1e-6);
    zeros += (x == 0.0f);
    sum += x;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);  // inverted dropout keeps E[x]
}

TEST(GraphForwardTest, LossValues) {
  Graph g;
  NodeId pred = g.Input(Tensor::Row({1.0f, 3.0f}));
  Tensor target = Tensor::Row({0.0f, 1.0f});
  // Row tensors: shape [1,2]; mean over 2 entries.
  EXPECT_FLOAT_EQ(g.value(g.MseLoss(pred, target)).at(0, 0), (1.0f + 4.0f) / 2);
}

TEST(GraphForwardTest, EmbedGathersRows) {
  ParameterStore store;
  util::Rng rng(7);
  Parameter* table = store.Create("t", 5, 3, Init::kEmbedding, &rng);
  Graph g;
  NodeId e = g.Embed(table, {4, 0, 4});
  EXPECT_EQ(g.value(e).rows(), 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(g.value(e).at(0, c), table->value.at(4, c));
    EXPECT_FLOAT_EQ(g.value(e).at(1, c), table->value.at(0, c));
    EXPECT_FLOAT_EQ(g.value(e).at(2, c), table->value.at(4, c));
  }
}

// ---------- gradient checks (property-style, per op) ----------

// How a case binds its operands. By value, inputs and parameters are copied
// into the graph. As views, every operand aliases its source the way a
// served batch and a mapped model do: inputs and targets go in as
// Tensor::View, and each parameter through a stand-in whose value is a
// read-only view of it (so Param aliases instead of copying). Backward
// folds the stand-ins' gradients back into the parameters.
class Binder {
 public:
  explicit Binder(bool views) : views_(views) {}

  NodeId Input(Graph* g, const Tensor& x) const {
    return views_ ? g->Input(View(x)) : g->Input(x);
  }
  Tensor Target(const Tensor& t) const { return views_ ? View(t) : t; }
  NodeId Param(Graph* g, Parameter* p) { return g->Param(Bind(p)); }
  NodeId Embed(Graph* g, Parameter* table, const std::vector<int>& ids) {
    return g->Embed(Bind(table), ids);
  }

  /// Runs backward from `loss` and returns the loss value.
  double Backward(Graph* g, NodeId loss) {
    g->Backward(loss);
    for (auto& [source, stand_in] : stand_ins_) {
      for (size_t i = 0; i < source->grad.size(); ++i) {
        source->grad.data()[i] += stand_in->grad.data()[i];
      }
    }
    return g->value(loss).at(0, 0);
  }

 private:
  static Tensor View(const Tensor& t) {
    return Tensor::View(t.data(), t.rows(), t.cols());
  }

  Parameter* Bind(Parameter* p) {
    if (!views_) return p;
    for (auto& [source, stand_in] : stand_ins_) {
      if (source == p) return stand_in.get();
    }
    auto stand_in = std::make_unique<Parameter>();
    stand_in->name = p->name;
    stand_in->value = View(p->value);
    stand_in->grad = Tensor(p->value.rows(), p->value.cols());
    stand_ins_.emplace_back(p, std::move(stand_in));
    return stand_ins_.back().second.get();
  }

  bool views_;
  std::vector<std::pair<Parameter*, std::unique_ptr<Parameter>>> stand_ins_;
};

// Each case builds a scalar loss from a single parameter through one op and
// verifies analytic vs numeric gradients.
using LossBuilder = double (*)(ParameterStore*, util::Rng*, Binder*);

struct OpCase {
  const char* name;
  LossBuilder build;
  bool views = false;  // bind every operand as a view (see Binder)
};

// Without this gtest prints a case as its raw bytes, pointers included, and
// the test names it lists would change with every build and run.
void PrintTo(const OpCase& op, std::ostream* os) { *os << op.name; }

double MatMulLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* w = store->Find("w");
  if (!w) w = store->Create("w", 4, 3, Init::kGlorotUniform, rng);
  Graph g;
  util::Rng data_rng(11);
  Tensor x = RandomTensor(5, 4, &data_rng);
  Tensor target(5, 3);
  NodeId loss = g.MseLoss(g.MatMul(bind->Input(&g, x), bind->Param(&g, w)),
                          bind->Target(target));
  return bind->Backward(&g, loss);
}

double BiasLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* b = store->Find("b");
  if (!b) b = store->Create("b", 1, 4, Init::kGlorotUniform, rng);
  Graph g;
  util::Rng data_rng(13);
  Tensor x = RandomTensor(3, 4, &data_rng);
  Tensor target(3, 4);
  NodeId loss = g.MseLoss(g.AddBias(bind->Input(&g, x), bind->Param(&g, b)),
                          bind->Target(target));
  return bind->Backward(&g, loss);
}

double LeakyReluLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* w = store->Find("w");
  if (!w) w = store->Create("w", 1, 6, Init::kGlorotUniform, rng);
  Graph g;
  Tensor target(1, 6);
  target.Fill(0.3f);
  NodeId loss = g.MseLoss(g.LeakyRelu(bind->Param(&g, w), 0.001f),
                          bind->Target(target));
  return bind->Backward(&g, loss);
}

double SoftmaxLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* w = store->Find("w");
  if (!w) w = store->Create("w", 2, 5, Init::kGlorotUniform, rng);
  Graph g;
  Tensor target(2, 5);
  target.Fill(0.2f);
  NodeId loss =
      g.MseLoss(g.Softmax(bind->Param(&g, w)), bind->Target(target));
  return bind->Backward(&g, loss);
}

double ConcatSliceLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* a = store->Find("a");
  Parameter* b = store->Find("b");
  if (!a) a = store->Create("a", 2, 3, Init::kGlorotUniform, rng);
  if (!b) b = store->Create("b", 2, 2, Init::kGlorotUniform, rng);
  Graph g;
  Tensor target(2, 4);
  NodeId cat = g.Concat({bind->Param(&g, a), bind->Param(&g, b)});
  // Columns [1, 5) of the concatenation, selected by a 0/1 matrix.
  Tensor select(5, 4);
  for (int c = 0; c < 4; ++c) select.at(c + 1, c) = 1.0f;
  NodeId sliced = g.MatMul(cat, bind->Input(&g, select));
  NodeId loss = g.MseLoss(sliced, bind->Target(target));
  return bind->Backward(&g, loss);
}

double ArithmeticLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* a = store->Find("a");
  Parameter* b = store->Find("b");
  if (!a) a = store->Create("a", 2, 3, Init::kGlorotUniform, rng);
  if (!b) b = store->Create("b", 2, 3, Init::kGlorotUniform, rng);
  Graph g;
  Tensor target(2, 6);
  NodeId expr = g.Concat({g.Add(bind->Param(&g, a), bind->Param(&g, b)),
                          g.Sub(bind->Param(&g, a), bind->Param(&g, b))});
  NodeId loss = g.MseLoss(expr, bind->Target(target));
  return bind->Backward(&g, loss);
}

double EmbedLoss(ParameterStore* store, util::Rng* rng, Binder* bind) {
  Parameter* table = store->Find("t");
  if (!table) table = store->Create("t", 6, 4, Init::kEmbedding, rng);
  Graph g;
  Tensor target(3, 4);
  target.Fill(0.1f);
  // Repeated id → grad accumulation.
  NodeId e = bind->Embed(&g, table, {2, 5, 2});
  NodeId loss = g.MseLoss(e, bind->Target(target));
  return bind->Backward(&g, loss);
}

double GroupWeightedSumLoss(ParameterStore* store, util::Rng* rng,
                            Binder* bind) {
  Parameter* p = store->Find("p");
  Parameter* h = store->Find("h");
  if (!p) p = store->Create("p", 3, 4, Init::kGlorotUniform, rng);
  if (!h) h = store->Create("h", 3, 8, Init::kGlorotUniform, rng);
  Graph g;
  Tensor target(3, 2);
  NodeId loss = g.MseLoss(
      g.GroupWeightedSum(bind->Param(&g, p), bind->Param(&g, h), 4),
      bind->Target(target));
  return bind->Backward(&g, loss);
}

class OpGradientTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradientTest, AnalyticMatchesNumeric) {
  ParameterStore store;
  util::Rng rng(2025);
  const OpCase& op = GetParam();
  auto loss_fn = [&]() {
    Binder bind(op.views);
    return op.build(&store, &rng, &bind);
  };
  loss_fn();  // create parameters
  GradCheckResult result = CheckGradients(&store, loss_fn, 1e-2, 12);
  EXPECT_GT(result.checked, 0u);
  EXPECT_LT(result.max_rel_error, 5e-2)
      << op.name << " worst param: " << result.worst_param
      << " abs err: " << result.max_abs_error;
}

std::vector<OpCase> OpCases(bool views) {
  return {OpCase{"matmul", &MatMulLoss, views},
          OpCase{"bias", &BiasLoss, views},
          OpCase{"leaky_relu", &LeakyReluLoss, views},
          OpCase{"softmax", &SoftmaxLoss, views},
          OpCase{"concat_slice", &ConcatSliceLoss, views},
          OpCase{"arithmetic", &ArithmeticLoss, views},
          OpCase{"embed", &EmbedLoss, views},
          OpCase{"group_weighted_sum", &GroupWeightedSumLoss, views}};
}

std::string OpCaseName(const ::testing::TestParamInfo<OpCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradientTest,
                         ::testing::ValuesIn(OpCases(/*views=*/false)),
                         OpCaseName);
INSTANTIATE_TEST_SUITE_P(AllOpsAsViews, OpGradientTest,
                         ::testing::ValuesIn(OpCases(/*views=*/true)),
                         OpCaseName);

TEST(GraphBackwardTest, GradAccumulatesAcrossUses) {
  // y = w + w → dy/dw = 2.
  ParameterStore store;
  util::Rng rng(1);
  Parameter* w = store.Create("w", 1, 1, Init::kGlorotUniform, &rng);
  w->value.at(0, 0) = 1.5f;
  Graph g;
  NodeId n = g.Param(w);
  Tensor target(1, 1);
  NodeId loss = g.MseLoss(g.Add(n, n), target);
  store.ZeroGrads();
  g.Backward(loss);
  // loss = (2w)² → d/dw = 8w = 12.
  EXPECT_NEAR(w->grad.at(0, 0), 12.0f, 1e-4);
}

}  // namespace
}  // namespace nn
}  // namespace deepsd
