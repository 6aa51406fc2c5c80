// Additional autograd coverage: exact forward values for every arithmetic
// op, analytic softmax Jacobian on known inputs, multi-part concat
// gradients, graph reuse via Clear(), Param and Input nodes that alias a
// read-only view, and gradient flow through the exact composite the
// extended block uses.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/nn/graph.h"

namespace deepsd {
namespace nn {
namespace {

TEST(GraphExtraTest, AddSubValues) {
  Graph g;
  NodeId a = g.Input(Tensor::Row({2.0f, -3.0f}));
  NodeId b = g.Input(Tensor::Row({5.0f, 4.0f}));
  EXPECT_FLOAT_EQ(g.value(g.Add(a, b)).at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.value(g.Sub(a, b)).at(0, 0), -3.0f);
}

TEST(GraphExtraTest, SoftmaxMatchesAnalyticValues) {
  Graph g;
  NodeId y = g.Softmax(g.Input(Tensor::Row({0.0f, std::log(3.0f)})));
  EXPECT_NEAR(g.value(y).at(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(g.value(y).at(0, 1), 0.75f, 1e-6);
}

TEST(GraphExtraTest, SoftmaxGradientMatchesJacobian) {
  // d softmax_i / d x_j = y_i(δ_ij − y_j). Pick loss = y_0 (via slice and
  // a weighted MSE trick): use MseLoss with a target making dL/dy simple.
  ParameterStore store;
  util::Rng rng(1);
  Parameter* x = store.Create("x", 1, 3, Init::kZero, &rng);
  x->value.at(0, 0) = 0.2f;
  x->value.at(0, 1) = -0.4f;
  x->value.at(0, 2) = 0.9f;

  Graph g;
  NodeId y = g.Softmax(g.Param(x));
  // loss = mean((y - 0)^2) → dL/dy_i = 2 y_i / 3.
  Tensor target(1, 3);
  NodeId loss = g.MseLoss(y, target);
  store.ZeroGrads();
  g.Backward(loss);

  const Tensor& yv = g.value(y);
  for (int j = 0; j < 3; ++j) {
    double expected = 0;
    for (int i = 0; i < 3; ++i) {
      double dli = 2.0 * yv.at(0, i) / 3.0;
      double jac = yv.at(0, i) * ((i == j ? 1.0 : 0.0) - yv.at(0, j));
      expected += dli * jac;
    }
    EXPECT_NEAR(x->grad.at(0, j), expected, 1e-6) << "j=" << j;
  }
}

TEST(GraphExtraTest, ConcatThreePartsRoutesGradients) {
  ParameterStore store;
  util::Rng rng(2);
  Parameter* a = store.Create("a", 2, 1, Init::kZero, &rng);
  Parameter* b = store.Create("b", 2, 2, Init::kZero, &rng);
  Parameter* c = store.Create("c", 2, 3, Init::kZero, &rng);
  Graph g;
  NodeId cat = g.Concat({g.Param(a), g.Param(b), g.Param(c)});
  ASSERT_EQ(g.value(cat).cols(), 6);
  Tensor target(2, 6);
  target.Fill(1.0f);  // pred-target = -1 everywhere
  NodeId loss = g.MseLoss(cat, target);
  store.ZeroGrads();
  g.Backward(loss);
  // dL/dx = 2(x−t)/12 = −1/6 for every element of every part.
  for (Parameter* p : {a, b, c}) {
    for (float v : p->grad.flat()) EXPECT_NEAR(v, -1.0f / 6, 1e-6);
  }
}

TEST(GraphExtraTest, ClearAllowsReuse) {
  Graph g;
  NodeId a = g.Input(Tensor::Row({1.0f}));
  EXPECT_EQ(g.num_nodes(), 1u);
  g.Clear();
  EXPECT_EQ(g.num_nodes(), 0u);
  NodeId b = g.Input(Tensor::Row({2.0f, 3.0f}));
  EXPECT_EQ(b, 0);  // ids restart
  EXPECT_EQ(g.value(b).cols(), 2);
  (void)a;
}

TEST(GraphExtraTest, ParamValueSnapshotTakenAtBind) {
  // Param nodes copy the value at bind time; later mutation of the
  // parameter does not change an already-built graph.
  ParameterStore store;
  util::Rng rng(3);
  Parameter* w = store.Create("w", 1, 1, Init::kZero, &rng);
  w->value.at(0, 0) = 1.0f;
  Graph g;
  NodeId n = g.Param(w);
  w->value.at(0, 0) = 99.0f;
  EXPECT_FLOAT_EQ(g.value(n).at(0, 0), 1.0f);
}

TEST(GraphExtraTest, ParamOverReadOnlyViewAliasesIt) {
  // A read-only value (a model-store mapping) cannot change, so Param binds
  // it in place; a mutable value is still copied at bind time. Either way
  // the node reads the same floats and backward reaches the parameter.
  ParameterStore store;
  util::Rng rng(6);
  Parameter* w = store.Create("w", 2, 3, Init::kGlorotUniform, &rng);
  const std::vector<float> mapped = w->value.flat();
  Parameter* p = store.Create("p", 2, 3, Init::kZero, &rng);
  p->InstallValue(Tensor::View(mapped.data(), 2, 3), 0.0f);

  Graph g;
  NodeId copied = g.Param(w);
  NodeId aliased = g.Param(p);
  EXPECT_NE(g.value(copied).data(), w->value.data());
  EXPECT_FALSE(g.value(copied).is_view());
  EXPECT_EQ(g.value(aliased).data(), mapped.data());
  EXPECT_TRUE(g.value(aliased).is_view());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(g.value(aliased).data()[i], g.value(copied).data()[i]);
  }

  Tensor target(2, 3);
  NodeId loss = g.MseLoss(g.Sub(g.Add(aliased, aliased), copied), target);
  store.ZeroGrads();
  g.Backward(loss);
  // loss = mean((2p − w)²) with p == w: dL/dp = 2·2·w/6 = 2w/3 and
  // dL/dw = −2·w/6 = −w/3.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(p->grad.data()[i], 2 * mapped[static_cast<size_t>(i)] / 3);
    EXPECT_FLOAT_EQ(w->grad.data()[i], -mapped[static_cast<size_t>(i)] / 3);
  }
}

TEST(GraphExtraTest, InputOfViewAliasesItsSource) {
  // The adopting Input binds a view as is; the copying Input does not.
  const Tensor x = Tensor::Row({1.0f, -2.0f, 3.0f});
  Graph g;
  NodeId view = g.Input(Tensor::View(x.data(), 1, 3));
  NodeId copy = g.Input(x);
  EXPECT_EQ(g.value(view).data(), x.data());
  EXPECT_NE(g.value(copy).data(), x.data());
  NodeId sum = g.Add(view, copy);
  EXPECT_FLOAT_EQ(g.value(sum).at(0, 2), 6.0f);

  // A slot that held a view is refilled after its source is gone: neither
  // the slot nor the arena may touch the stale view.
  {
    std::vector<float> gone = {4.0f, 5.0f};
    g.Clear();
    g.Input(Tensor::View(gone.data(), 1, 2));
  }
  g.Clear();
  NodeId fresh = g.Input(Tensor::Row({7.0f, 8.0f}));
  EXPECT_FALSE(g.value(fresh).is_view());
  EXPECT_FLOAT_EQ(g.value(fresh).at(0, 1), 8.0f);
}

TEST(GraphExtraTest, DeviationCompositeGradients) {
  // The extended block's est = pe10 + (pv − pe): gradient of a downstream
  // loss must flow +1 to pe10, +1 to pv and −1 to pe.
  ParameterStore store;
  util::Rng rng(4);
  Parameter* pv = store.Create("pv", 1, 2, Init::kZero, &rng);
  Parameter* pe = store.Create("pe", 1, 2, Init::kZero, &rng);
  Parameter* pe10 = store.Create("pe10", 1, 2, Init::kZero, &rng);
  pv->value.at(0, 0) = 1.0f;
  pe->value.at(0, 0) = 2.0f;
  pe10->value.at(0, 0) = 3.0f;

  Graph g;
  NodeId est = g.Add(g.Param(pe10), g.Sub(g.Param(pv), g.Param(pe)));
  EXPECT_FLOAT_EQ(g.value(est).at(0, 0), 2.0f);
  Tensor target(1, 2);
  NodeId loss = g.MseLoss(est, target);  // dL/dest = 2·est/2 = est
  store.ZeroGrads();
  g.Backward(loss);
  EXPECT_FLOAT_EQ(pe10->grad.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(pv->grad.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(pe->grad.at(0, 0), -2.0f);
}

TEST(GraphExtraTest, GroupWeightedSumBatchRows) {
  // Batch of two rows with different weights: rows are independent.
  Graph g;
  Tensor p(2, 2), h(2, 4);
  p.at(0, 0) = 1.0f;  // row 0 picks group 0
  p.at(1, 1) = 1.0f;  // row 1 picks group 1
  for (int c = 0; c < 4; ++c) {
    h.at(0, c) = static_cast<float>(c);
    h.at(1, c) = static_cast<float>(10 + c);
  }
  NodeId e = g.GroupWeightedSum(g.Input(p), g.Input(h), 2);
  EXPECT_FLOAT_EQ(g.value(e).at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.value(e).at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.value(e).at(1, 0), 12.0f);
  EXPECT_FLOAT_EQ(g.value(e).at(1, 1), 13.0f);
}

TEST(GraphExtraTest, MseGradientSign) {
  ParameterStore store;
  util::Rng rng(5);
  Parameter* w = store.Create("w", 1, 1, Init::kZero, &rng);
  w->value.at(0, 0) = 2.0f;
  Graph g;
  Tensor target(1, 1);
  target.at(0, 0) = 5.0f;
  NodeId loss = g.MseLoss(g.Param(w), target);
  store.ZeroGrads();
  g.Backward(loss);
  // Under-prediction → negative gradient pushes w up under gradient descent.
  EXPECT_LT(w->grad.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(w->grad.at(0, 0), 2.0f * (2.0f - 5.0f));
}

}  // namespace
}  // namespace nn
}  // namespace deepsd
