#include "nn/parameter.h"

#include <cmath>
#include <cstring>

namespace deepsd {
namespace nn {

const kernels::QuantizedWeights& Parameter::Quantized() const {
  const uint64_t v = version();
  if (quant_version_.load(std::memory_order_acquire) != v) {
    std::lock_guard<std::mutex> lock(quant_mu_);
    if (quant_version_.load(std::memory_order_relaxed) != v) {
      kernels::QuantizeWeights(value.data(), value.rows(), value.cols(),
                               &quant_);
      quant_version_.store(v, std::memory_order_release);
    }
  }
  return quant_;
}

void Parameter::InstallQuantized(kernels::QuantizedWeights qw) {
  std::lock_guard<std::mutex> lock(quant_mu_);
  quant_ = std::move(qw);
  quant_version_.store(version(), std::memory_order_release);
}

void InitTensor(Tensor* t, Init init, util::Rng* rng) {
  switch (init) {
    case Init::kZero:
      t->Zero();
      return;
    case Init::kGlorotUniform: {
      double limit = std::sqrt(6.0 / (t->rows() + t->cols()));
      for (float& v : t->flat()) {
        v = static_cast<float>(rng->Uniform(-limit, limit));
      }
      return;
    }
    case Init::kHeUniform: {
      double limit = std::sqrt(6.0 / t->rows());
      for (float& v : t->flat()) {
        v = static_cast<float>(rng->Uniform(-limit, limit));
      }
      return;
    }
    case Init::kEmbedding:
      for (float& v : t->flat()) {
        v = static_cast<float>(rng->Uniform(-0.05, 0.05));
      }
      return;
  }
}

Parameter* ParameterStore::Create(const std::string& name, int rows, int cols,
                                  Init init, util::Rng* rng) {
  if (Parameter* existing = Find(name)) {
    DEEPSD_CHECK_MSG(existing->value.rows() == rows &&
                         existing->value.cols() == cols,
                     "parameter re-created with different shape: " + name);
    return existing;
  }
  auto p = std::make_unique<Parameter>();
  p->name = name;
  p->value = Tensor(rows, cols);
  p->grad = Tensor(rows, cols);
  InitTensor(&p->value, init, rng);
  Parameter* raw = p.get();
  params_.push_back(std::move(p));
  return raw;
}

Parameter* ParameterStore::Find(const std::string& name) {
  for (auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

const Parameter* ParameterStore::Find(const std::string& name) const {
  for (const auto& p : params_) {
    if (p->name == name) return p.get();
  }
  return nullptr;
}

size_t ParameterStore::NumWeights() const {
  size_t n = 0;
  for (const auto& p : params_) n += p->value.size();
  return n;
}

void ParameterStore::ZeroGrads() {
  for (auto& p : params_) p->grad.Zero();
}

void ParameterStore::SetFrozen(const std::string& prefix, bool frozen) {
  for (auto& p : params_) {
    if (p->name.rfind(prefix, 0) == 0) p->frozen = frozen;
  }
}

int ParameterStore::CopyFrom(const ParameterStore& other) {
  int count = 0;
  for (auto& p : params_) {
    const Parameter* src = other.Find(p->name);
    if (src != nullptr && src->value.SameShape(p->value)) {
      if (src->value.is_view()) {
        // Copy-assigning a view aliases its pointer; a deep copy must
        // materialize the floats so the destination stays writable (the
        // fine-tune warm start copies from an mmap'd StoredModel).
        Tensor copy(src->value.rows(), src->value.cols());
        std::memcpy(copy.data(), src->value.data(),
                    copy.size() * sizeof(float));
        p->value = std::move(copy);
      } else {
        p->value = src->value;
      }
      p->act_absmax = src->act_absmax;
      p->BumpVersion();
      ++count;
    }
  }
  return count;
}

void ParameterStore::AverageFrom(
    const std::vector<const ParameterStore*>& stores) {
  DEEPSD_CHECK(!stores.empty());
  for (auto& p : params_) {
    Tensor sum(p->value.rows(), p->value.cols());
    for (const ParameterStore* s : stores) {
      const Parameter* src = s->Find(p->name);
      DEEPSD_CHECK_MSG(src != nullptr && src->value.SameShape(p->value),
                       "AverageFrom structure mismatch: " + p->name);
      for (size_t i = 0; i < sum.size(); ++i) {
        sum.flat()[i] += src->value.flat()[i];
      }
    }
    float inv = 1.0f / static_cast<float>(stores.size());
    for (size_t i = 0; i < sum.size(); ++i) {
      p->value.flat()[i] = sum.flat()[i] * inv;
    }
    p->BumpVersion();
  }
}

GradBuffer::GradBuffer(const ParameterStore& store) {
  const auto& params = store.parameters();
  grads_.reserve(params.size());
  index_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    grads_.emplace_back(params[i]->value.rows(), params[i]->value.cols());
    index_.emplace(params[i].get(), i);
  }
}

Tensor& GradBuffer::grad(const Parameter* p) {
  auto it = index_.find(p);
  DEEPSD_CHECK_MSG(it != index_.end(),
                   "GradBuffer used with a foreign parameter: " + p->name);
  return grads_[it->second];
}

void GradBuffer::Zero() {
  for (Tensor& g : grads_) g.Zero();
}

std::unique_ptr<ParameterStore> ParameterStore::Clone() const {
  auto out = std::make_unique<ParameterStore>();
  for (const auto& p : params_) {
    auto q = std::make_unique<Parameter>();
    q->name = p->name;
    q->value = p->value;
    q->grad = Tensor(p->value.rows(), p->value.cols());
    q->frozen = p->frozen;
    q->act_absmax = p->act_absmax;
    out->params_.push_back(std::move(q));
  }
  return out;
}

}  // namespace nn
}  // namespace deepsd
