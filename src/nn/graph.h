#ifndef DEEPSD_NN_GRAPH_H_
#define DEEPSD_NN_GRAPH_H_

#include <initializer_list>
#include <vector>

#include "nn/arena.h"
#include "nn/parameter.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace deepsd {
namespace nn {

/// Handle to a node in a Graph. Valid only for the graph that produced it
/// and only until Clear().
using NodeId = int;

/// Define-by-run autodiff tape over 2-D tensors.
///
/// Every op evaluates its value eagerly and records an opcode plus its
/// operands in a fixed-size node; Backward(loss) replays the tape in
/// reverse, accumulating gradients into node grads and — for Param
/// leaves — into Parameter::grad. Parameters persist outside in a
/// ParameterStore.
///
/// The graph is built to be *replayed*: Clear() does not free anything.
/// Node slots stay in place — side vectors keep their capacity and each
/// slot *retains* its value/grad/aux storage. When the next step rebuilds
/// the same topology, every node finds a same-sized buffer waiting in its
/// slot and reuses it directly (stable data pointers, no pool traffic);
/// on a shape change the slot's buffer is swapped through the graph's
/// TensorArena instead. Steady-state replay therefore performs no heap
/// allocations. Keep one graph alive per worker/shard and Clear() it
/// between batches instead of constructing a fresh one.
///
/// Building the tape touches no gradient storage: Backward sizes and
/// zeroes the grads of the nodes it visits first, so an inference forward
/// pays only for its values. A node value may be a read-only view (an
/// aliasing Input or Param); ops read every value through data()/row(),
/// and a view owns nothing the slot or the arena could recycle.
///
/// This is deliberately the smallest op set that expresses DeepSD: dense
/// matmul + bias, the fused FC→LReL unit, concatenation, element-wise
/// add/subtract, LReL, row softmax, dropout, embedding lookup, a grouped
/// weighted sum (for E = Σ_w p(w)·H(w)) and the MSE loss.
class Graph {
 public:
  /// Node slots reserved at construction, so building the tape does not
  /// reallocate it. A DeepSD advanced-mode training forward plus its loss
  /// builds 154 nodes at the default config (num_nodes(); checked in
  /// core_model_test).
  static constexpr size_t kReservedNodes = 192;

  explicit Graph(util::Rng* rng = nullptr) : rng_(rng) {
    nodes_.reserve(kReservedNodes);
  }

  /// True while training: dropout is active. Toggle per pass.
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Calibration mode: forward passes record an EWMA of the absmax of
  /// every activation multiplied against a Parameter-backed weight into
  /// that Parameter's act_absmax (the static range the int8 kernels use).
  /// Values are untouched — a calibrating pass computes exactly what a
  /// plain one does. Single-threaded by design: the trainer runs its
  /// calibration pass on one graph after training (core/trainer.cc).
  void set_calibrating(bool calibrating) { calibrating_ = calibrating; }
  bool calibrating() const { return calibrating_; }

  /// Rebinds the dropout RNG. Long-lived graphs (trainer shard slots) are
  /// pointed at the current shard's deterministic RNG before each replay.
  void set_rng(util::Rng* rng) { rng_ = rng; }

  /// Redirects parameter-gradient accumulation (Param leaves and embedding
  /// tables) into `buffer` instead of Parameter::grad. Data-parallel
  /// training points each shard's graph at its own buffer so concurrent
  /// backward passes never write shared state; nullptr (the default)
  /// restores direct accumulation. The buffer must outlive Backward().
  void set_grad_buffer(GradBuffer* buffer) { grad_buffer_ = buffer; }

  /// Constant input (no gradient). The const overload copies into
  /// slot- or arena-backed storage. The rvalue overload adopts the tensor:
  /// an owning tensor's buffer joins the arena when its slot is reused,
  /// and a Tensor::View is bound as is, so the node aliases the viewed
  /// floats. Those must stay alive and unchanged until the graph is
  /// cleared, or until Backward returns when it runs.
  NodeId Input(const Tensor& value);
  NodeId Input(Tensor&& value);
  /// Leaf bound to a trainable parameter; backward accumulates into
  /// `p->grad` (even when frozen — the optimizer decides what to apply).
  /// A mutable value is snapshotted at bind time: changing `p->value`
  /// later does not change the built graph. A value that is already a
  /// read-only view (a model-store mapping) cannot change, so the node
  /// aliases it instead of copying.
  NodeId Param(Parameter* p);

  /// x:[B,M] · w:[M,N] → [B,N].
  NodeId MatMul(NodeId x, NodeId w);
  /// x:[B,N] + broadcast row b:[1,N].
  NodeId AddBias(NodeId x, NodeId b);
  /// Fused FC→LReL unit: lrel(x·w + b) in one kernel pass with no
  /// intermediate pre-activation node. Requires alpha > 0 (backward
  /// recovers the LReL mask from the sign of the output). Bitwise
  /// identical to MatMul → AddBias → LeakyRelu.
  NodeId LinearLRel(NodeId x, NodeId w, NodeId b, float alpha);
  /// Element-wise; shapes must match.
  NodeId Add(NodeId a, NodeId b);
  NodeId Sub(NodeId a, NodeId b);
  /// Column-wise concatenation of nodes with equal batch size.
  NodeId Concat(const std::vector<NodeId>& parts);
  NodeId Concat(std::initializer_list<NodeId> parts);
  /// Leaky rectified linear: max(alpha*x, x). Paper uses alpha = 0.001.
  NodeId LeakyRelu(NodeId x, float alpha = 0.001f);
  /// Row-wise softmax.
  NodeId Softmax(NodeId x);
  /// Inverted dropout with keep prob 1-p; identity when not training.
  NodeId Dropout(NodeId x, float p);
  /// Gathers `table` rows by id: ids.size()=B → [B, table.cols()].
  NodeId Embed(Parameter* table, const std::vector<int>& ids);
  /// Grouped weighted sum: p:[B,G], h:[B,G*K] → out:[B,K],
  /// out[b,k] = Σ_g p[b,g]·h[b,g*K+k]. Computes E from stacked H vectors.
  NodeId GroupWeightedSum(NodeId p, NodeId h, int groups);

  /// Mean squared error against a constant target [B,1] → scalar [1,1].
  /// The target is copied into node-owned (arena) storage.
  NodeId MseLoss(NodeId pred, const Tensor& target);
  /// Squared error summed over this graph's rows but divided by an
  /// explicit `denom` — the full minibatch size when the batch is split
  /// into data-parallel shards. Per-sample gradients are then
  /// 2·(pred−target)/denom exactly as in the unsharded mean, and the shard
  /// losses sum to the batch loss.
  NodeId MseLoss(NodeId pred, const Tensor& target, double denom);

  const Tensor& value(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].value;
  }
  /// Gradient of a node at or before the loss of the last Backward; other
  /// nodes' grads are unspecified.
  const Tensor& grad(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].grad;
  }

  /// Zeroes the grads of nodes [0, loss], then runs reverse-mode
  /// accumulation from `loss` (seeds d(loss)=1).
  void Backward(NodeId loss);

  /// Resets the tape for replay; parameters are untouched. Node slots keep
  /// their tensor storage in place for the next build — nothing is freed.
  void Clear();

  size_t num_nodes() const { return live_; }

  /// Fallback storage pool: backward scratch and shape-mismatch swaps go
  /// through here (hit/miss stats). Steady-state replay bypasses it.
  const TensorArena& arena() const { return arena_; }

 private:
  enum class Op {
    kInput,
    kParam,
    kMatMul,
    kAddBias,
    kLinearLRel,
    kAdd,
    kSub,
    kConcat,
    kLeakyRelu,
    kSoftmax,
    kDropout,
    kEmbed,
    kGroupWeightedSum,
    kMseLoss,
  };

  struct Node {
    Op op = Op::kInput;
    Tensor value;
    Tensor grad;
    /// Op-owned tensor state: dropout mask, loss target. Arena-recycled.
    Tensor aux;
    Parameter* param = nullptr;  // Param leaf / Embed table
    NodeId a = -1, b = -1, c = -1;
    float scalar = 0.0f;  // LReL alpha
    double denom = 0.0;   // loss denominator
    int i0 = 0, i1 = 0;   // GroupWeightedSum {groups, k}
    std::vector<NodeId> inputs;  // Concat operands (capacity reused)
    std::vector<int> ids;        // Embed ids (capacity reused)
  };

  /// Claims the next node slot (reusing a cleared one when available),
  /// resets its per-op fields and installs `value`. The slot's grad is
  /// left as it was until Backward.
  NodeId AddNode(Op op, Tensor value);
  /// Sizes `n.grad` like its value and zeroes it, reusing the retained
  /// grad buffer when the size matches.
  void ZeroGrad(Node& n);
  /// Output buffer for the node about to be created at slot `live_`:
  /// the slot's retained value storage when the element count matches,
  /// an arena buffer otherwise.
  Tensor AcquireValueSlot(int rows, int cols, bool zeroed);
  /// Same, for the slot's aux tensor (dropout mask, loss target).
  Tensor AcquireAuxSlot(int rows, int cols, bool zeroed);
  NodeId ConcatImpl(const NodeId* parts, size_t count);
  void BackwardNode(Node& n);
  Node& node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
  /// Destination for `p`'s gradient: the shard-local buffer when one is
  /// set, the shared Parameter::grad otherwise.
  Tensor& param_grad(Parameter* p) {
    return grad_buffer_ != nullptr ? grad_buffer_->grad(p) : p->grad;
  }

  std::vector<Node> nodes_;
  size_t live_ = 0;  // nodes_[0, live_) are the current tape
  TensorArena arena_;
  util::Rng* rng_;
  GradBuffer* grad_buffer_ = nullptr;
  bool training_ = false;
  bool calibrating_ = false;
};

}  // namespace nn
}  // namespace deepsd

#endif  // DEEPSD_NN_GRAPH_H_
