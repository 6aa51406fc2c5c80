#include "nn/graph.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace deepsd {
namespace nn {

Tensor Graph::AcquireValueSlot(int rows, int cols, bool zeroed) {
  const size_t count = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  // A view left in the slot by an aliasing Param/Input owns nothing to
  // reuse; the arena ignores it.
  if (live_ < nodes_.size() && count > 0 && !nodes_[live_].value.is_view() &&
      nodes_[live_].value.size() == count) {
    Tensor t(rows, cols, nodes_[live_].value.ReleaseStorage());
    if (zeroed) std::fill(t.data(), t.data() + count, 0.0f);
    return t;
  }
  if (live_ < nodes_.size()) arena_.Release(std::move(nodes_[live_].value));
  return arena_.Acquire(rows, cols, zeroed);
}

Tensor Graph::AcquireAuxSlot(int rows, int cols, bool zeroed) {
  const size_t count = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (live_ < nodes_.size() && count > 0 &&
      nodes_[live_].aux.size() == count) {
    Tensor t(rows, cols, nodes_[live_].aux.ReleaseStorage());
    if (zeroed) std::fill(t.data(), t.data() + count, 0.0f);
    return t;
  }
  if (live_ < nodes_.size()) arena_.Release(std::move(nodes_[live_].aux));
  return arena_.Acquire(rows, cols, zeroed);
}

NodeId Graph::AddNode(Op op, Tensor value) {
  if (live_ == nodes_.size()) nodes_.emplace_back();
  Node& n = nodes_[live_];
  n.op = op;
  // The slot's retained value is normally already gone (AcquireValueSlot
  // moved it into `value`); when an adopting Input or an aliasing Param
  // bypassed that path, hand the leftover to the arena instead of freeing
  // it. The grad is left alone: Backward sizes and zeroes it.
  arena_.Release(std::move(n.value));
  n.value = std::move(value);
  n.param = nullptr;
  n.a = n.b = n.c = -1;
  n.scalar = 0.0f;
  n.denom = 0.0;
  n.i0 = n.i1 = 0;
  n.inputs.clear();
  n.ids.clear();
  return static_cast<NodeId>(live_++);
}

NodeId Graph::Input(const Tensor& value) {
  Tensor out = AcquireValueSlot(value.rows(), value.cols(), /*zeroed=*/false);
  std::copy(value.data(), value.data() + value.size(), out.data());
  return AddNode(Op::kInput, std::move(out));
}

NodeId Graph::Input(Tensor&& value) {
  return AddNode(Op::kInput, std::move(value));
}

NodeId Graph::Param(Parameter* p) {
  DEEPSD_CHECK(p != nullptr);
  const Tensor& value = p->value;
  Tensor out;
  if (value.is_view()) {
    // Read-only storage (a model-store mapping) cannot change under the
    // graph, so aliasing it reads exactly what a bind-time copy would.
    out = Tensor::View(value.data(), value.rows(), value.cols());
  } else {
    out = AcquireValueSlot(value.rows(), value.cols(), /*zeroed=*/false);
    std::copy(value.data(), value.data() + value.size(), out.data());
  }
  NodeId id = AddNode(Op::kParam, std::move(out));
  node(id).param = p;
  return id;
}

namespace {

// Calibration EWMA: first observation seeds the range, later ones blend
// in at 10% so a few outlier batches cannot blow up the static scale.
void CalibrateActivation(Parameter* wp, const Tensor& x) {
  float amax = 0.0f;
  const float* xd = x.data();
  for (size_t i = 0; i < x.size(); ++i) {
    const float a = std::fabs(xd[i]);
    if (a > amax) amax = a;
  }
  if (!std::isfinite(amax)) return;
  wp->act_absmax =
      wp->act_absmax == 0.0f ? amax : 0.9f * wp->act_absmax + 0.1f * amax;
}

// True when this forward multiply should take the int8 path: quant mode,
// inference (training stays fp32 bitwise), and a Parameter-backed weight
// whose cached quantized form matches the multiply's shape.
bool UseQuant(bool training, const Parameter* wp, const Tensor& xv,
              const Tensor& wv) {
  return !training && wp != nullptr &&
         kernels::kernel_mode() == kernels::KernelMode::kQuant &&
         wv.rows() == xv.cols();
}

}  // namespace

NodeId Graph::MatMul(NodeId x, NodeId w) {
  const Tensor& xv = value(x);
  const Tensor& wv = value(w);
  Parameter* wp = node(w).param;
  if (calibrating_ && wp != nullptr) CalibrateActivation(wp, xv);
  Tensor out = AcquireValueSlot(xv.rows(), wv.cols(), /*zeroed=*/false);
  if (UseQuant(training_, wp, xv, wv)) {
    kernels::GemmQuant(xv.data(), wp->Quantized(), out.data(), xv.rows(),
                       xv.cols(), wv.cols(), wp->act_absmax,
                       /*accumulate=*/false);
  } else {
    nn::MatMul(xv, wv, &out);
  }
  NodeId id = AddNode(Op::kMatMul, std::move(out));
  Node& n = node(id);
  n.a = x;
  n.b = w;
  return id;
}

NodeId Graph::AddBias(NodeId x, NodeId b) {
  const Tensor& xv = value(x);
  const Tensor& bv = value(b);
  DEEPSD_CHECK(bv.rows() == 1 && bv.cols() == xv.cols());
  Tensor out = AcquireValueSlot(xv.rows(), xv.cols(), /*zeroed=*/false);
  for (int r = 0; r < out.rows(); ++r) {
    const float* xrow = xv.row(r);
    const float* brow = bv.row(0);
    float* row = out.row(r);
    for (int c = 0; c < out.cols(); ++c) row[c] = xrow[c] + brow[c];
  }
  NodeId id = AddNode(Op::kAddBias, std::move(out));
  Node& n = node(id);
  n.a = x;
  n.b = b;
  return id;
}

NodeId Graph::LinearLRel(NodeId x, NodeId w, NodeId b, float alpha) {
  const Tensor& xv = value(x);
  const Tensor& wv = value(w);
  const Tensor& bv = value(b);
  DEEPSD_CHECK(xv.cols() == wv.rows());
  DEEPSD_CHECK(bv.rows() == 1 && bv.cols() == wv.cols());
  DEEPSD_CHECK_MSG(alpha > 0.0f,
                   "LinearLRel requires alpha > 0 (mask from output sign)");
  Parameter* wp = node(w).param;
  if (calibrating_ && wp != nullptr) CalibrateActivation(wp, xv);
  Tensor out = AcquireValueSlot(xv.rows(), wv.cols(), /*zeroed=*/false);
  if (UseQuant(training_, wp, xv, wv)) {
    kernels::GemmBiasLRelQuant(xv.data(), wp->Quantized(), bv.data(),
                               out.data(), xv.rows(), xv.cols(), wv.cols(),
                               alpha, wp->act_absmax);
  } else {
    kernels::GemmBiasLRel(xv.data(), wv.data(), bv.data(), out.data(),
                          xv.rows(), xv.cols(), wv.cols(), alpha);
  }
  NodeId id = AddNode(Op::kLinearLRel, std::move(out));
  Node& n = node(id);
  n.a = x;
  n.b = w;
  n.c = b;
  n.scalar = alpha;
  return id;
}

NodeId Graph::Add(NodeId a, NodeId b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  DEEPSD_CHECK(av.SameShape(bv));
  Tensor out = AcquireValueSlot(av.rows(), av.cols(), /*zeroed=*/false);
  const float* ad = av.data();
  const float* bd = bv.data();
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) o[i] = ad[i] + bd[i];
  NodeId id = AddNode(Op::kAdd, std::move(out));
  Node& n = node(id);
  n.a = a;
  n.b = b;
  return id;
}

NodeId Graph::Sub(NodeId a, NodeId b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  DEEPSD_CHECK(av.SameShape(bv));
  Tensor out = AcquireValueSlot(av.rows(), av.cols(), /*zeroed=*/false);
  const float* ad = av.data();
  const float* bd = bv.data();
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) o[i] = ad[i] - bd[i];
  NodeId id = AddNode(Op::kSub, std::move(out));
  Node& n = node(id);
  n.a = a;
  n.b = b;
  return id;
}

NodeId Graph::ConcatImpl(const NodeId* parts, size_t count) {
  DEEPSD_CHECK(count > 0);
  int rows = value(parts[0]).rows();
  int cols = 0;
  for (size_t i = 0; i < count; ++i) {
    DEEPSD_CHECK(value(parts[i]).rows() == rows);
    cols += value(parts[i]).cols();
  }
  Tensor out = AcquireValueSlot(rows, cols, /*zeroed=*/false);
  int offset = 0;
  for (size_t i = 0; i < count; ++i) {
    const Tensor& pv = value(parts[i]);
    for (int r = 0; r < rows; ++r) {
      std::copy(pv.row(r), pv.row(r) + pv.cols(), out.row(r) + offset);
    }
    offset += pv.cols();
  }
  NodeId id = AddNode(Op::kConcat, std::move(out));
  node(id).inputs.assign(parts, parts + count);
  return id;
}

NodeId Graph::Concat(const std::vector<NodeId>& parts) {
  return ConcatImpl(parts.data(), parts.size());
}

NodeId Graph::Concat(std::initializer_list<NodeId> parts) {
  return ConcatImpl(parts.begin(), parts.size());
}

NodeId Graph::LeakyRelu(NodeId x, float alpha) {
  const Tensor& xv = value(x);
  Tensor out = AcquireValueSlot(xv.rows(), xv.cols(), /*zeroed=*/false);
  const float* xd = xv.data();
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    const float v = xd[i];
    o[i] = v < 0.0f ? v * alpha : v;
  }
  NodeId id = AddNode(Op::kLeakyRelu, std::move(out));
  Node& n = node(id);
  n.a = x;
  n.scalar = alpha;
  return id;
}

NodeId Graph::Softmax(NodeId x) {
  const Tensor& xv = value(x);
  Tensor out = AcquireValueSlot(xv.rows(), xv.cols(), /*zeroed=*/false);
  for (int r = 0; r < xv.rows(); ++r) {
    const float* in = xv.row(r);
    float* o = out.row(r);
    float mx = in[0];
    for (int c = 1; c < xv.cols(); ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (int c = 0; c < xv.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    for (int c = 0; c < xv.cols(); ++c) o[c] /= sum;
  }
  NodeId id = AddNode(Op::kSoftmax, std::move(out));
  node(id).a = x;
  return id;
}

NodeId Graph::Dropout(NodeId x, float p) {
  if (!training_ || p <= 0.0f) return x;
  DEEPSD_CHECK_MSG(rng_ != nullptr, "Dropout in training mode needs an Rng");
  const Tensor& xv = value(x);
  Tensor mask = AcquireAuxSlot(xv.rows(), xv.cols(), /*zeroed=*/false);
  float keep = 1.0f - p;
  float scale = 1.0f / keep;
  float* m = mask.data();
  for (size_t i = 0; i < mask.size(); ++i) {
    m[i] = rng_->Bernoulli(keep) ? scale : 0.0f;
  }
  Tensor out = AcquireValueSlot(xv.rows(), xv.cols(), /*zeroed=*/false);
  const float* xd = xv.data();
  float* o = out.data();
  for (size_t i = 0; i < out.size(); ++i) o[i] = xd[i] * m[i];
  NodeId id = AddNode(Op::kDropout, std::move(out));
  Node& n = node(id);
  n.a = x;
  n.aux = std::move(mask);  // must outlive forward for the backward pass
  return id;
}

NodeId Graph::Embed(Parameter* table, const std::vector<int>& ids) {
  DEEPSD_CHECK(table != nullptr);
  const Tensor& value = table->value;  // may be a read-only store view
  const int vocab = value.rows();
  const int dim = value.cols();
  Tensor out =
      AcquireValueSlot(static_cast<int>(ids.size()), dim, /*zeroed=*/false);
  for (size_t b = 0; b < ids.size(); ++b) {
    DEEPSD_CHECK_MSG(ids[b] >= 0 && ids[b] < vocab,
                     "embedding id out of range: " + table->name);
    std::copy(value.row(ids[b]), value.row(ids[b]) + dim,
              out.row(static_cast<int>(b)));
  }
  NodeId id = AddNode(Op::kEmbed, std::move(out));
  Node& n = node(id);
  n.param = table;
  n.ids.assign(ids.begin(), ids.end());
  return id;
}

NodeId Graph::GroupWeightedSum(NodeId p, NodeId h, int groups) {
  const Tensor& pv = value(p);
  const Tensor& hv = value(h);
  DEEPSD_CHECK(pv.cols() == groups);
  DEEPSD_CHECK(hv.cols() % groups == 0);
  DEEPSD_CHECK(pv.rows() == hv.rows());
  const int k = hv.cols() / groups;
  Tensor out = AcquireValueSlot(pv.rows(), k, /*zeroed=*/true);
  for (int r = 0; r < pv.rows(); ++r) {
    const float* pr = pv.row(r);
    const float* hr = hv.row(r);
    float* o = out.row(r);
    for (int g = 0; g < groups; ++g) {
      float w = pr[g];
      const float* hg = hr + g * k;
      for (int c = 0; c < k; ++c) o[c] += w * hg[c];
    }
  }
  NodeId id = AddNode(Op::kGroupWeightedSum, std::move(out));
  Node& n = node(id);
  n.a = p;
  n.b = h;
  n.i0 = groups;
  n.i1 = k;
  return id;
}

NodeId Graph::MseLoss(NodeId pred, const Tensor& target) {
  return MseLoss(pred, target, static_cast<double>(value(pred).size()));
}

NodeId Graph::MseLoss(NodeId pred, const Tensor& target, double denom) {
  const Tensor& pv = value(pred);
  DEEPSD_CHECK(pv.SameShape(target));
  DEEPSD_CHECK(denom > 0.0);
  const float* pd = pv.data();
  const float* td = target.data();
  double sum = 0.0;
  for (size_t i = 0; i < pv.size(); ++i) {
    double d = static_cast<double>(pd[i]) - td[i];
    sum += d * d;
  }
  Tensor aux = AcquireAuxSlot(target.rows(), target.cols(), /*zeroed=*/false);
  std::copy(target.data(), target.data() + target.size(), aux.data());
  Tensor out = AcquireValueSlot(1, 1, /*zeroed=*/false);
  out.at(0, 0) = static_cast<float>(sum / denom);
  NodeId id = AddNode(Op::kMseLoss, std::move(out));
  Node& n = node(id);
  n.a = pred;
  n.denom = denom;
  n.aux = std::move(aux);
  return id;
}

void Graph::BackwardNode(Node& n) {
  switch (n.op) {
    case Op::kInput:
      break;
    case Op::kParam: {
      float* dst = param_grad(n.param).data();
      const float* dy = n.grad.data();
      for (size_t i = 0; i < n.grad.size(); ++i) dst[i] += dy[i];
      break;
    }
    case Op::kMatMul: {
      const Tensor& dy = n.grad;
      // dX += dY · W^T ; dW += X^T · dY
      MatMulTransposeB(dy, node(n.b).value, &node(n.a).grad);
      MatMulTransposeA(node(n.a).value, dy, &node(n.b).grad);
      break;
    }
    case Op::kAddBias: {
      const Tensor& dy = n.grad;
      Tensor& dx = node(n.a).grad;
      Tensor& db = node(n.b).grad;
      for (int r = 0; r < dy.rows(); ++r) {
        const float* dyr = dy.row(r);
        float* dxr = dx.row(r);
        float* dbr = db.row(0);
        for (int c = 0; c < dy.cols(); ++c) {
          dxr[c] += dyr[c];
          dbr[c] += dyr[c];
        }
      }
      break;
    }
    case Op::kLinearLRel: {
      const Tensor& dy = n.grad;
      // dz = dy ∘ lrel-mask(y); then the unfused trio's gradients with
      // the same per-target accumulation orders: db rows ascending,
      // dX += dz·W^T, dW += X^T·dz.
      Tensor dz = arena_.Acquire(dy.rows(), dy.cols(), /*zeroed=*/false);
      kernels::LRelMaskBackward(n.value.data(), dy.data(), dz.data(),
                                dy.size(), n.scalar);
      kernels::BiasGradAccumulate(dz.data(), node(n.c).grad.row(0), dy.rows(),
                                  dy.cols());
      MatMulTransposeB(dz, node(n.b).value, &node(n.a).grad);
      MatMulTransposeA(node(n.a).value, dz, &node(n.b).grad);
      arena_.Release(std::move(dz));
      break;
    }
    case Op::kAdd: {
      const float* dy = n.grad.data();
      float* da = node(n.a).grad.data();
      float* db = node(n.b).grad.data();
      for (size_t i = 0; i < n.grad.size(); ++i) {
        da[i] += dy[i];
        db[i] += dy[i];
      }
      break;
    }
    case Op::kSub: {
      const float* dy = n.grad.data();
      float* da = node(n.a).grad.data();
      float* db = node(n.b).grad.data();
      for (size_t i = 0; i < n.grad.size(); ++i) {
        da[i] += dy[i];
        db[i] -= dy[i];
      }
      break;
    }
    case Op::kConcat: {
      const Tensor& dy = n.grad;
      int offset = 0;
      for (NodeId p : n.inputs) {
        Tensor& dp = node(p).grad;
        for (int r = 0; r < dy.rows(); ++r) {
          const float* src = dy.row(r) + offset;
          float* dst = dp.row(r);
          for (int c = 0; c < dp.cols(); ++c) dst[c] += src[c];
        }
        offset += dp.cols();
      }
      break;
    }
    case Op::kLeakyRelu: {
      const float* dy = n.grad.data();
      const float* xv = value(n.a).data();
      float* dx = node(n.a).grad.data();
      for (size_t i = 0; i < n.grad.size(); ++i) {
        dx[i] += dy[i] * (xv[i] >= 0.0f ? 1.0f : n.scalar);
      }
      break;
    }
    case Op::kSoftmax: {
      const Tensor& dy = n.grad;
      const Tensor& y = n.value;
      Tensor& dx = node(n.a).grad;
      for (int r = 0; r < dy.rows(); ++r) {
        const float* yr = y.row(r);
        const float* dyr = dy.row(r);
        float* dxr = dx.row(r);
        float dot = 0.0f;
        for (int c = 0; c < dy.cols(); ++c) dot += yr[c] * dyr[c];
        for (int c = 0; c < dy.cols(); ++c) {
          dxr[c] += yr[c] * (dyr[c] - dot);
        }
      }
      break;
    }
    case Op::kDropout: {
      const float* dy = n.grad.data();
      const float* mask = n.aux.data();
      float* dx = node(n.a).grad.data();
      for (size_t i = 0; i < n.grad.size(); ++i) dx[i] += dy[i] * mask[i];
      break;
    }
    case Op::kEmbed: {
      const Tensor& dy = n.grad;
      Tensor& table_grad = param_grad(n.param);
      for (size_t b = 0; b < n.ids.size(); ++b) {
        const float* src = dy.row(static_cast<int>(b));
        float* dst = table_grad.row(n.ids[b]);
        for (int c = 0; c < dy.cols(); ++c) dst[c] += src[c];
      }
      break;
    }
    case Op::kGroupWeightedSum: {
      const Tensor& dy = n.grad;
      const Tensor& pv = node(n.a).value;
      const Tensor& hv = node(n.b).value;
      Tensor& dp = node(n.a).grad;
      Tensor& dh = node(n.b).grad;
      const int groups = n.i0;
      const int k = n.i1;
      for (int r = 0; r < dy.rows(); ++r) {
        const float* dyr = dy.row(r);
        const float* pr = pv.row(r);
        const float* hr = hv.row(r);
        float* dpr = dp.row(r);
        float* dhr = dh.row(r);
        for (int grp = 0; grp < groups; ++grp) {
          const float* hg = hr + grp * k;
          float* dhg = dhr + grp * k;
          float acc = 0.0f;
          for (int c = 0; c < k; ++c) {
            acc += dyr[c] * hg[c];
            dhg[c] += dyr[c] * pr[grp];
          }
          dpr[grp] += acc;
        }
      }
      break;
    }
    case Op::kMseLoss: {
      float dy = n.grad.at(0, 0);
      const Tensor& pv = node(n.a).value;
      const float* pd = pv.data();
      const float* td = n.aux.data();
      float* dp = node(n.a).grad.data();
      float scale = 2.0f / static_cast<float>(n.denom);
      for (size_t i = 0; i < pv.size(); ++i) {
        dp[i] += dy * scale * (pd[i] - td[i]);
      }
      break;
    }
  }
}

void Graph::ZeroGrad(Node& n) {
  const Tensor& v = n.value;
  const size_t count = v.size();
  if (count > 0 && n.grad.size() == count) {
    // Retained grad from the previous replay: rebind the shape and re-zero.
    Tensor g(v.rows(), v.cols(), n.grad.ReleaseStorage());
    std::fill(g.data(), g.data() + count, 0.0f);
    n.grad = std::move(g);
  } else {
    arena_.Release(std::move(n.grad));
    n.grad = arena_.Acquire(v.rows(), v.cols(), /*zeroed=*/true);
  }
}

void Graph::Backward(NodeId loss) {
  Node& l = node(loss);
  DEEPSD_CHECK_MSG(l.value.rows() == 1 && l.value.cols() == 1,
                   "Backward expects a scalar loss");
  for (int i = 0; i <= loss; ++i) ZeroGrad(node(i));
  l.grad.at(0, 0) = 1.0f;
  for (int i = loss; i >= 0; --i) BackwardNode(node(i));
}

void Graph::Clear() {
  // Tensors stay parked in their slots so the next replay of the same
  // topology reuses them in place (AcquireValueSlot/AcquireAuxSlot, and
  // ZeroGrad in Backward). Only the dangling parameter bindings go.
  for (size_t i = 0; i < live_; ++i) nodes_[i].param = nullptr;
  live_ = 0;
}

}  // namespace nn
}  // namespace deepsd
