#include "core/model.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace core {

namespace {
const char* kSignalNames[3] = {"ext_sd", "ext_lc", "ext_wt"};

// A feature block of the batch as an input node. The batch outlives the
// forward and its Backward (serving and the trainer both hold it), so the
// node aliases the block instead of copying it.
nn::NodeId BatchInput(nn::Graph* g, const nn::Tensor& block) {
  return g->Input(nn::Tensor::View(block.data(), block.rows(), block.cols()));
}
}  // namespace

DeepSDModel::DeepSDModel(const DeepSDConfig& config, Mode mode,
                         nn::ParameterStore* store, util::Rng* rng)
    : config_(config), mode_(mode), store_(store) {
  const int L = config_.window;

  int area_dim, time_dim, week_dim, wc_type_dim;
  if (config_.use_embedding) {
    area_embed_ = std::make_unique<nn::Embedding>(
        store, "id.area", config_.num_areas, config_.area_embed_dim, rng);
    time_embed_ = std::make_unique<nn::Embedding>(
        store, "id.time", config_.time_vocab, config_.time_embed_dim, rng);
    week_embed_ = std::make_unique<nn::Embedding>(
        store, "id.week", data::kDaysPerWeek, config_.week_embed_dim, rng);
    weather_embed_ = std::make_unique<nn::Embedding>(
        store, "weather.type", config_.weather_vocab,
        config_.weather_embed_dim, rng);
    area_dim = config_.area_embed_dim;
    time_dim = config_.time_embed_dim;
    week_dim = config_.week_embed_dim;
    wc_type_dim = config_.weather_embed_dim;
  } else {
    area_onehot_ = std::make_unique<nn::OneHot>(config_.num_areas);
    time_onehot_ = std::make_unique<nn::OneHot>(config_.time_vocab);
    week_onehot_ = std::make_unique<nn::OneHot>(data::kDaysPerWeek);
    weather_onehot_ = std::make_unique<nn::OneHot>(config_.weather_vocab);
    area_dim = config_.num_areas;
    time_dim = config_.time_vocab;
    week_dim = data::kDaysPerWeek;
    wc_type_dim = config_.weather_vocab;
  }

  if (mode_ == Mode::kBasic) {
    sd_fc1_ = std::make_unique<nn::Linear>(store, "sd.fc1", 2 * L,
                                           config_.hidden1, rng);
    sd_fc2_ = std::make_unique<nn::Linear>(store, "sd.fc2", config_.hidden1,
                                           config_.hidden2, rng);
  } else {
    int quad_dim = 4 * config_.proj_dim;
    for (int s = 0; s < 3; ++s) {
      if ((s == 1 && !config_.use_last_call) ||
          (s == 2 && !config_.use_waiting_time)) {
        continue;
      }
      ExtendedBlock& blk = ext_[static_cast<size_t>(s)];
      std::string prefix = kSignalNames[s];
      blk.softmax = std::make_unique<nn::Linear>(
          store, prefix + ".softmax", area_dim + week_dim, data::kDaysPerWeek,
          rng);
      blk.proj = std::make_unique<nn::Linear>(store, prefix + ".proj", 2 * L,
                                              config_.proj_dim, rng);
      // First block sees only its quad; later blocks additionally see the
      // running representation through the direct connection (residual
      // mode). Without residual every block sees only its own quad.
      int in_dim = quad_dim;
      if (config_.use_residual && s > 0) in_dim += config_.hidden2;
      blk.fc1 = std::make_unique<nn::Linear>(store, prefix + ".fc1", in_dim,
                                             config_.hidden1, rng);
      // Residual branches start as the identity (zero-initialized output
      // layer): attaching a new block to a trained stream is a no-op until
      // the optimizer moves it — the property the extendability story
      // (Sec V-C) depends on.
      blk.fc2 = std::make_unique<nn::Linear>(
          store, prefix + ".fc2", config_.hidden1, config_.hidden2, rng,
          config_.use_residual && s > 0 ? nn::Init::kZero
                                        : nn::Init::kGlorotUniform);
    }
  }

  if (config_.use_weather) {
    int wc_dim = L * wc_type_dim + 2 * L;
    int in_dim = wc_dim + (config_.use_residual ? config_.hidden2 : 0);
    wc_fc1_ = std::make_unique<nn::Linear>(store, "weather.fc1", in_dim,
                                           config_.hidden1, rng);
    wc_fc2_ = std::make_unique<nn::Linear>(
        store, "weather.fc2", config_.hidden1, config_.hidden2, rng,
        config_.use_residual ? nn::Init::kZero : nn::Init::kGlorotUniform);
  }
  if (config_.use_traffic) {
    int tc_dim = data::kCongestionLevels * L;
    int in_dim = tc_dim + (config_.use_residual ? config_.hidden2 : 0);
    tc_fc1_ = std::make_unique<nn::Linear>(store, "traffic.fc1", in_dim,
                                           config_.hidden1, rng);
    tc_fc2_ = std::make_unique<nn::Linear>(
        store, "traffic.fc2", config_.hidden1, config_.hidden2, rng,
        config_.use_residual ? nn::Init::kZero : nn::Init::kGlorotUniform);
  }

  // Head input: identity features plus either the final residual stream
  // (residual mode) or the concatenation of every block output.
  int id_dim = area_dim + time_dim + week_dim;
  int stream_dim;
  if (config_.use_residual) {
    stream_dim = config_.hidden2;
  } else {
    int order_blocks =
        mode_ == Mode::kBasic
            ? 1
            : 1 + (config_.use_last_call ? 1 : 0) +
                  (config_.use_waiting_time ? 1 : 0);
    int blocks = order_blocks + (config_.use_weather ? 1 : 0) +
                 (config_.use_traffic ? 1 : 0);
    stream_dim = blocks * config_.hidden2;
  }
  head_fc_ = std::make_unique<nn::Linear>(store, "head.fc",
                                          id_dim + stream_dim,
                                          config_.hidden2, rng);
  head_out_ = std::make_unique<nn::Linear>(store, "head.out", config_.hidden2,
                                           1, rng);
}

nn::NodeId DeepSDModel::IdentityPart(nn::Graph* g, const Batch& batch) const {
  nn::NodeId area, time, week;
  if (config_.use_embedding) {
    area = area_embed_->Apply(g, batch.area_ids);
    time = time_embed_->Apply(g, batch.time_ids);
    week = week_embed_->Apply(g, batch.week_ids);
  } else {
    area = area_onehot_->Apply(g, batch.area_ids);
    time = time_onehot_->Apply(g, batch.time_ids);
    week = week_onehot_->Apply(g, batch.week_ids);
  }
  return g->Concat({area, time, week});
}

nn::NodeId DeepSDModel::WeatherVector(nn::Graph* g, const Batch& batch) const {
  // Scratch is reused across calls on the same thread so the steady-state
  // forward pass performs no allocations.
  static thread_local std::vector<nn::NodeId> parts;
  parts.clear();
  parts.reserve(batch.weather_types_by_lag.size() + 1);
  for (const std::vector<int>& ids : batch.weather_types_by_lag) {
    parts.push_back(config_.use_embedding ? weather_embed_->Apply(g, ids)
                                          : weather_onehot_->Apply(g, ids));
  }
  parts.push_back(BatchInput(g, batch.weather_reals));
  return g->Concat(parts);
}

nn::NodeId DeepSDModel::FcLRel(nn::Graph* g, const nn::Linear& fc,
                               nn::NodeId in) const {
  if (config_.leaky_alpha > 0.0f) {
    return fc.ApplyLRel(g, in, config_.leaky_alpha);
  }
  return g->LeakyRelu(fc.Apply(g, in), config_.leaky_alpha);
}

nn::NodeId DeepSDModel::BlockMlp(nn::Graph* g, const nn::Linear& fc1,
                                 const nn::Linear& fc2, nn::NodeId in) const {
  return FcLRel(g, fc2, FcLRel(g, fc1, in));
}

nn::NodeId DeepSDModel::AttachBlock(nn::Graph* g, const nn::Linear& fc1,
                                    const nn::Linear& fc2, nn::NodeId x,
                                    nn::NodeId extra,
                                    std::vector<nn::NodeId>* concat_parts) const {
  if (config_.use_residual) {
    nn::NodeId in = g->Concat({x, extra});
    nn::NodeId r = g->Dropout(BlockMlp(g, fc1, fc2, in), config_.dropout);
    return g->Add(x, r);
  }
  nn::NodeId out = g->Dropout(BlockMlp(g, fc1, fc2, extra), config_.dropout);
  concat_parts->push_back(out);
  return x;  // stream unchanged; outputs gathered via concat_parts
}

nn::NodeId DeepSDModel::ExtendedQuad(nn::Graph* g, const Batch& batch,
                                     int signal, const nn::Tensor& v,
                                     const nn::Tensor& h, const nn::Tensor& h10,
                                     ExtendedNodes* nodes) const {
  const size_t s = static_cast<size_t>(signal);
  const ExtendedBlock& blk = ext_[s];
  nn::NodeId p;
  if (batch.has_projections) {
    p = BatchInput(g, batch.weekday_p[s]);
  } else if (config_.uniform_weekday_weights) {
    // Reused scratch: moving a fresh tensor into the graph every step
    // would grow the arena pool without bound; the copy-Input below runs
    // on recycled arena storage instead.
    static thread_local nn::Tensor uniform;
    const int rows = v.rows();
    if (uniform.rows() != rows || uniform.cols() != data::kDaysPerWeek) {
      uniform = nn::Tensor(rows, data::kDaysPerWeek);
    }
    uniform.Fill(1.0f / data::kDaysPerWeek);
    p = g->Input(uniform);
  } else {
    nn::NodeId area, week;
    if (config_.use_embedding) {
      area = area_embed_->Apply(g, batch.area_ids);
      week = week_embed_->Apply(g, batch.week_ids);
    } else {
      area = area_onehot_->Apply(g, batch.area_ids);
      week = week_onehot_->Apply(g, batch.week_ids);
    }
    p = g->Softmax(blk.softmax->Apply(g, g->Concat({area, week})));
  }

  // Proj(E^t) is the Proj(E^{t+10}) of the tick ten minutes earlier, which
  // a serving batch carries instead of H^t.
  const nn::NodeId e_t =
      batch.has_projections
          ? -1
          : g->GroupWeightedSum(p, BatchInput(g, h), data::kDaysPerWeek);
  nn::NodeId e_t10 =
      g->GroupWeightedSum(p, BatchInput(g, h10), data::kDaysPerWeek);

  nn::NodeId pv = FcLRel(g, *blk.proj, BatchInput(g, v));
  nn::NodeId pe = batch.has_projections ? BatchInput(g, batch.proj_e[s])
                                        : FcLRel(g, *blk.proj, e_t);
  nn::NodeId pe10 = FcLRel(g, *blk.proj, e_t10);
  if (nodes != nullptr) {
    nodes->p[s] = p;
    nodes->proj_e10[s] = pe10;
  }
  // Estimated Proj(V^{t+10}) = Proj(E^{t+10}) ⊕ (Proj(V^t) ⊖ Proj(E^t)).
  nn::NodeId est = g->Add(pe10, g->Sub(pv, pe));

  return g->Concat({pv, pe, pe10, est});
}

nn::NodeId DeepSDModel::Forward(nn::Graph* g, const Batch& batch,
                                ExtendedNodes* nodes) const {
  DEEPSD_CHECK_MSG(mode_ == Mode::kBasic || batch.has_advanced,
                   "advanced model needs advanced features");
  nn::NodeId x_id = IdentityPart(g, batch);

  // Used when residual is off; thread_local so replayed forwards reuse
  // its capacity.
  static thread_local std::vector<nn::NodeId> concat_parts;
  concat_parts.clear();

  nn::NodeId stream;
  if (mode_ == Mode::kBasic) {
    nn::NodeId v_sd = BatchInput(g, batch.v_sd);
    stream = g->Dropout(BlockMlp(g, *sd_fc1_, *sd_fc2_, v_sd), config_.dropout);
    if (!config_.use_residual) {
      concat_parts.push_back(stream);
    }
  } else {
    nn::NodeId q_sd = ExtendedQuad(g, batch, 0, batch.v_sd, batch.h_sd,
                                   batch.h_sd10, nodes);
    const ExtendedBlock& sd = ext_[0];
    stream =
        g->Dropout(BlockMlp(g, *sd.fc1, *sd.fc2, q_sd), config_.dropout);
    if (!config_.use_residual) concat_parts.push_back(stream);

    if (config_.use_last_call) {
      nn::NodeId q_lc = ExtendedQuad(g, batch, 1, batch.v_lc, batch.h_lc,
                                     batch.h_lc10, nodes);
      stream = AttachBlock(g, *ext_[1].fc1, *ext_[1].fc2, stream, q_lc,
                           &concat_parts);
    }
    if (config_.use_waiting_time) {
      nn::NodeId q_wt = ExtendedQuad(g, batch, 2, batch.v_wt, batch.h_wt,
                                     batch.h_wt10, nodes);
      stream = AttachBlock(g, *ext_[2].fc1, *ext_[2].fc2, stream, q_wt,
                           &concat_parts);
    }
  }

  if (config_.use_weather) {
    nn::NodeId v_wc = WeatherVector(g, batch);
    stream = AttachBlock(g, *wc_fc1_, *wc_fc2_, stream, v_wc, &concat_parts);
  }
  if (config_.use_traffic) {
    nn::NodeId v_tc = BatchInput(g, batch.v_tc);
    stream = AttachBlock(g, *tc_fc1_, *tc_fc2_, stream, v_tc, &concat_parts);
  }

  nn::NodeId features;
  if (config_.use_residual) {
    features = g->Concat({x_id, stream});
  } else {
    static thread_local std::vector<nn::NodeId> all;
    all.clear();
    all.push_back(x_id);
    all.insert(all.end(), concat_parts.begin(), concat_parts.end());
    features = g->Concat(all);
  }
  nn::NodeId hidden = FcLRel(g, *head_fc_, features);
  return head_out_->Apply(g, hidden);  // linear activation on the output
}

std::vector<float> DeepSDModel::Predict(
    const std::vector<feature::ModelInput>& inputs, int batch_size) const {
  std::vector<float> preds(inputs.size());
  const std::span<const feature::ModelInput> all(inputs);
  ForwardChunks(inputs.size(), batch_size, preds.data(), {}, nullptr,
                [&](size_t begin, size_t end, Batch* scratch) -> const Batch& {
                  *scratch = PackBatch(all.subspan(begin, end - begin));
                  return *scratch;
                });
  return preds;
}

std::vector<float> DeepSDModel::Predict(const InputSource& source,
                                        int batch_size) const {
  std::vector<float> preds(source.size());
  ForwardChunks(source.size(), batch_size, preds.data(), {}, nullptr,
                [&](size_t begin, size_t end, Batch* scratch) -> const Batch& {
                  *scratch = MakeBatch(source, begin, end);
                  return *scratch;
                });
  return preds;
}

bool DeepSDModel::PredictRows(const Batch& batch, size_t begin, size_t end,
                              int batch_size, float* out,
                              util::Deadline deadline,
                              const ExtendedState* state) const {
  return ForwardChunks(
      end - begin, batch_size, out, deadline, state,
      [&](size_t b, size_t e, Batch* scratch) -> const Batch& {
        SliceRows(batch, begin + b, begin + e, scratch);
        return *scratch;
      });
}

bool DeepSDModel::ForwardChunks(
    size_t n, int batch_size, float* out, util::Deadline deadline,
    const ExtendedState* state,
    const std::function<const Batch&(size_t, size_t, Batch*)>& chunk) const {
  // Chunks run in parallel on the shared pool, each writing its disjoint
  // slice of `out`. Every forward op computes each batch row
  // independently, so the numbers per row never depend on which rows share
  // a chunk — the result is bitwise-identical to the serial loop for any
  // thread count or chunking. Each pool thread keeps one long-lived graph
  // whose arena recycles tensor storage across chunks (and across Predict
  // calls); recycled buffers are re-zeroed on acquire, so reuse cannot
  // change any value.
  //
  // A chunk starts only while the deadline holds: one relaxed flag load
  // plus a clock read, so a request that expires mid-forward stops
  // burning pool time almost immediately.
  std::atomic<bool> expired{false};
  const size_t span = static_cast<size_t>(std::max(batch_size, 1));
  util::ThreadPool::Global().ParallelFor(
      0, n, span, [&](size_t begin, size_t end) {
        if (expired.load(std::memory_order_relaxed)) return;
        if (deadline.expired()) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        static thread_local Batch scratch;
        const Batch& batch = chunk(begin, end, &scratch);
        static thread_local nn::Graph g;
        g.Clear();
        g.set_training(false);
        ExtendedNodes nodes;
        nn::NodeId pred =
            Forward(&g, batch, state != nullptr ? &nodes : nullptr);
        const nn::Tensor& result = g.value(pred);
        for (int r = 0; r < result.rows(); ++r) {
          float v = result.at(r, 0);
          if (config_.clamp_nonnegative) v = std::max(v, 0.0f);
          out[begin + static_cast<size_t>(r)] = v;
        }
        if (state == nullptr) return;
        auto copy_rows = [&](nn::NodeId node, float* dst) {
          if (node < 0) return;  // a signal the model lacks
          const nn::Tensor& t = g.value(node);
          const size_t cols = static_cast<size_t>(t.cols());
          std::copy(t.data(), t.data() + t.size(), dst + begin * cols);
        };
        for (size_t s = 0; s < 3; ++s) {
          copy_rows(nodes.p[s], state->p[s]);
          copy_rows(nodes.proj_e10[s], state->proj_e10[s]);
        }
      });
  return !expired.load(std::memory_order_relaxed);
}

void DeepSDModel::ExtendedStamp(std::vector<uint64_t>* out) const {
  DEEPSD_CHECK(mode_ == Mode::kAdvanced);
  auto stamp = [out](const nn::Parameter* p) {
    out->push_back(p->version());
    out->push_back(std::bit_cast<uint32_t>(p->act_absmax));
  };
  if (config_.use_embedding) {
    stamp(area_embed_->table());
    stamp(week_embed_->table());
  }
  for (const ExtendedBlock& blk : ext_) {
    if (blk.proj == nullptr) continue;
    for (const nn::Linear* fc : {blk.softmax.get(), blk.proj.get()}) {
      stamp(fc->weight());
      stamp(fc->bias());
    }
  }
}

std::array<float, data::kDaysPerWeek> DeepSDModel::CombiningWeights(
    int area_id, int week_id, int signal) const {
  DEEPSD_CHECK_MSG(mode_ == Mode::kAdvanced,
                   "combining weights exist only in the advanced model");
  DEEPSD_CHECK(signal >= 0 && signal < 3);
  const ExtendedBlock& blk = ext_[static_cast<size_t>(signal)];
  nn::Graph g;
  g.set_training(false);
  std::vector<int> area_ids = {area_id};
  std::vector<int> week_ids = {week_id};
  nn::NodeId area, week;
  if (config_.use_embedding) {
    area = area_embed_->Apply(&g, area_ids);
    week = week_embed_->Apply(&g, week_ids);
  } else {
    area = area_onehot_->Apply(&g, area_ids);
    week = week_onehot_->Apply(&g, week_ids);
  }
  nn::NodeId p = g.Softmax(blk.softmax->Apply(&g, g.Concat({area, week})));
  std::array<float, data::kDaysPerWeek> out;
  for (int w = 0; w < data::kDaysPerWeek; ++w) {
    out[static_cast<size_t>(w)] = g.value(p).at(0, w);
  }
  return out;
}

}  // namespace core
}  // namespace deepsd
