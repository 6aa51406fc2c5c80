// TensorArena and graph-replay reuse: after a warm-up pass, rebuilding the
// same topology must be served entirely from recycled storage — stable
// tensor data pointers and zero heap allocations per step. A forward-only
// replay touches no gradient storage at all, and the grads Backward zeroes
// lazily match a fresh graph's after replays of other shapes.

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "nn/arena.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "util/rng.h"

namespace {

// Binary-wide operator new replacement that counts allocations while
// enabled. Counting is off by default so the rest of the test binary is
// unaffected beyond the (negligible) flag check.
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

void* CountedAlloc(size_t size) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
// The nothrow forms must allocate from the same heap the replaced deletes
// free to: left to the runtime's own, a nothrow new (std::stable_sort's
// temporary buffer) would be freed here with a mismatched allocator.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace deepsd {
namespace nn {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// Allocation counts are not meaningful under sanitizers.
constexpr bool kCountsAllocations = false;
#else
constexpr bool kCountsAllocations = true;
#endif

class AllocCounter {
 public:
  AllocCounter() {
    g_alloc_count.store(0);
    g_alloc_counting.store(true);
  }
  ~AllocCounter() { g_alloc_counting.store(false); }
  size_t count() const { return g_alloc_count.load(); }
};

TEST(TensorArenaTest, RecyclesBuffersByElementCount) {
  TensorArena arena;
  Tensor a = arena.Acquire(3, 4);
  EXPECT_EQ(arena.misses(), 1u);
  EXPECT_EQ(arena.hits(), 0u);
  const float* ptr = a.data();
  a.at(1, 2) = 7.0f;
  arena.Release(std::move(a));
  EXPECT_EQ(arena.pooled_buffers(), 1u);

  // Same element count, different shape: the buffer is re-adopted.
  Tensor b = arena.Acquire(12, 1);
  EXPECT_EQ(arena.hits(), 1u);
  EXPECT_EQ(b.data(), ptr);
  for (float v : b.flat()) EXPECT_EQ(v, 0.0f) << "acquire must zero";
  arena.Release(std::move(b));

  // zeroed=false hands the buffer back dirty.
  Tensor c = arena.Acquire(3, 4, /*zeroed=*/false);
  EXPECT_EQ(arena.hits(), 2u);
  EXPECT_EQ(c.data(), ptr);
}

TEST(TensorArenaTest, ReleaseIgnoresViews) {
  // A view borrows storage the arena does not own; pooling it would hand
  // read-only (or freed) memory to the next Acquire.
  TensorArena arena;
  const std::vector<float> src(6, 1.0f);
  arena.Release(Tensor::View(src.data(), 2, 3));
  EXPECT_EQ(arena.pooled_buffers(), 0u);
}

TEST(TensorArenaTest, ReleaseIgnoresEmptyAndClearDropsPool) {
  TensorArena arena;
  arena.Release(Tensor());
  EXPECT_EQ(arena.pooled_buffers(), 0u);
  arena.Release(arena.Acquire(2, 2));
  EXPECT_EQ(arena.pooled_buffers(), 1u);
  arena.Clear();
  EXPECT_EQ(arena.pooled_buffers(), 0u);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 0u);
}

class GraphReplayTest : public ::testing::Test {
 protected:
  GraphReplayTest() : rng_(23), fc1_(&store_, "fc1", 12, 16, &rng_),
                      fc2_(&store_, "fc2", 16, 1, &rng_), x_(5, 12),
                      target_(5, 1) {
    for (float& v : x_.flat()) v = rng_.Uniform(-1.0f, 1.0f);
    for (float& v : target_.flat()) v = rng_.Uniform(0.0f, 2.0f);
  }

  /// One training-shaped step: forward (fused FC→LReL, dropout), loss,
  /// backward, clear. Returns the loss value.
  float Step(Graph* g, util::Rng* dropout_rng) {
    g->Clear();
    g->set_rng(dropout_rng);
    g->set_training(true);
    NodeId x = g->Input(x_);
    NodeId h = fc1_.ApplyLRel(g, x, 0.001f);
    h = g->Dropout(h, 0.5f);
    NodeId pred = fc2_.Apply(g, h);
    NodeId loss = g->MseLoss(pred, target_);
    g->Backward(loss);
    return g->value(loss).at(0, 0);
  }

  /// Eval forward over the first `rows` rows with the features bound as a
  /// view, the way a served batch is; no loss, no Backward.
  NodeId Forward(Graph* g, int rows) {
    g->Clear();
    g->set_training(false);
    NodeId x = g->Input(Tensor::View(x_.data(), rows, x_.cols()));
    return fc2_.Apply(g, fc1_.ApplyLRel(g, x, 0.001f));
  }

  /// Training step over the first `rows` rows (features and target bound
  /// as views) with a fresh dropout stream; returns the loss node.
  NodeId TrainRows(Graph* g, int rows) {
    util::Rng dropout_rng(5);
    g->Clear();
    g->set_rng(&dropout_rng);
    g->set_training(true);
    NodeId x = g->Input(Tensor::View(x_.data(), rows, x_.cols()));
    NodeId h = g->Dropout(fc1_.ApplyLRel(g, x, 0.001f), 0.5f);
    NodeId loss = g->MseLoss(fc2_.Apply(g, h),
                             Tensor::View(target_.data(), rows, 1));
    store_.ZeroGrads();
    g->Backward(loss);
    g->set_rng(nullptr);
    return loss;
  }

  /// The shape and bits of every node grad up to `loss`, then the bits of
  /// every parameter grad.
  std::vector<uint32_t> Grads(const Graph& g, NodeId loss) const {
    std::vector<uint32_t> out;
    auto append = [&out](const Tensor& t) {
      for (size_t i = 0; i < t.size(); ++i) {
        out.push_back(std::bit_cast<uint32_t>(t.data()[i]));
      }
    };
    for (NodeId i = 0; i <= loss; ++i) {
      out.push_back(static_cast<uint32_t>(g.grad(i).rows()));
      out.push_back(static_cast<uint32_t>(g.grad(i).cols()));
      append(g.grad(i));
    }
    for (const auto& p : store_.parameters()) append(p->grad);
    return out;
  }

  /// Data pointers of every live node's value tensor.
  std::vector<const float*> ValuePointers(const Graph& g) const {
    std::vector<const float*> ptrs;
    for (size_t i = 0; i < g.num_nodes(); ++i) {
      ptrs.push_back(g.value(static_cast<NodeId>(i)).data());
    }
    return ptrs;
  }

  ParameterStore store_;
  util::Rng rng_;
  Linear fc1_, fc2_;
  Tensor x_;
  Tensor target_;
};

TEST_F(GraphReplayTest, SteadyStateReplayHasStablePointersAndFullHits) {
  Graph g;
  util::Rng dropout_rng(99);
  Step(&g, &dropout_rng);  // warm-up: populates the arena
  Step(&g, &dropout_rng);  // first recycled replay fixes the pop order
  std::vector<const float*> first = ValuePointers(g);
  const size_t hits_before = g.arena().hits();
  const size_t misses_before = g.arena().misses();
  const size_t pooled_before = g.arena().pooled_buffers();

  for (int step = 0; step < 5; ++step) {
    Step(&g, &dropout_rng);
    EXPECT_EQ(ValuePointers(g), first) << "step " << step;
  }
  // Every acquire after warm-up is a pool hit, and the pool itself has
  // reached a fixed point (no unbounded growth from adopted inputs).
  EXPECT_EQ(g.arena().misses(), misses_before);
  EXPECT_GT(g.arena().hits(), hits_before);
  g.Clear();
  EXPECT_EQ(g.arena().pooled_buffers(), pooled_before);
}

TEST_F(GraphReplayTest, SteadyStateReplayAllocatesNothing) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#endif
  Graph g;
  util::Rng dropout_rng(99);
  for (int warmup = 0; warmup < 3; ++warmup) Step(&g, &dropout_rng);

  AllocCounter counter;
  float loss_sum = 0.0f;
  for (int step = 0; step < 10; ++step) loss_sum += Step(&g, &dropout_rng);
  EXPECT_EQ(counter.count(), 0u) << "loss_sum=" << loss_sum;
}

TEST_F(GraphReplayTest, ForwardOnlyReplayTouchesNoGradOrArena) {
  // An inference forward never runs Backward, so it must not size or zero
  // a single gradient, and after warm-up it neither draws on the arena nor
  // allocates.
  Graph g;
  NodeId pred = Forward(&g, 5);
  for (NodeId i = 0; i <= pred; ++i) {
    EXPECT_EQ(g.grad(i).size(), 0u) << "node " << i;
  }
  for (int warmup = 0; warmup < 2; ++warmup) Forward(&g, 5);
  const size_t hits = g.arena().hits();
  const size_t misses = g.arena().misses();
  float sum = 0.0f;
  {
    AllocCounter counter;
    for (int step = 0; step < 10; ++step) {
      sum += g.value(Forward(&g, 5)).at(0, 0);
    }
    if (kCountsAllocations) {
      EXPECT_EQ(counter.count(), 0u) << "sum=" << sum;
    }
  }
  EXPECT_EQ(g.arena().hits(), hits);
  EXPECT_EQ(g.arena().misses(), misses);
  for (NodeId i = 0; i <= pred; ++i) EXPECT_EQ(g.grad(i).size(), 0u);
}

TEST_F(GraphReplayTest, GradsAfterShapeChangingReplaysMatchFreshGraph) {
  // Gradients are zeroed lazily, in Backward. A graph that has replayed
  // other shapes, with and without Backward, must still produce exactly a
  // fresh graph's gradients: no slot may keep a stale or missized grad.
  Graph fresh;
  const std::vector<uint32_t> want = Grads(fresh, TrainRows(&fresh, 4));

  Graph reused;
  TrainRows(&reused, 5);
  Forward(&reused, 3);
  TrainRows(&reused, 2);
  Forward(&reused, 4);
  EXPECT_EQ(Grads(reused, TrainRows(&reused, 4)), want);
  TrainRows(&reused, 5);
  EXPECT_EQ(Grads(reused, TrainRows(&reused, 4)), want);
}

TEST_F(GraphReplayTest, ReplayedValuesIndependentOfArenaState) {
  // Recycled buffers are re-zeroed/overwritten on acquire, so a replayed
  // step must produce byte-identical results to a fresh graph given the
  // same dropout stream.
  Graph reused;
  util::Rng rng_a(7);
  Step(&reused, &rng_a);
  Step(&reused, &rng_a);
  util::Rng rng_b(7);
  Graph fresh1;
  float l1 = Step(&fresh1, &rng_b);
  Graph fresh2;
  float l2 = Step(&fresh2, &rng_b);

  util::Rng rng_c(7);
  Graph replay;
  float r1 = Step(&replay, &rng_c);
  float r2 = Step(&replay, &rng_c);
  EXPECT_EQ(l1, r1);
  EXPECT_EQ(l2, r2);
}

TEST_F(GraphReplayTest, ClearRestartsIdsAndKeepsParametersIntact)  {
  Graph g;
  util::Rng dropout_rng(3);
  Step(&g, &dropout_rng);
  EXPECT_GT(g.num_nodes(), 0u);
  g.Clear();
  EXPECT_EQ(g.num_nodes(), 0u);
  NodeId id = g.Input(Tensor(2, 2));
  EXPECT_EQ(id, 0);
  EXPECT_GT(store_.parameters().size(), 0u);
}

}  // namespace
}  // namespace nn
}  // namespace deepsd
