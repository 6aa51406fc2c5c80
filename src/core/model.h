#ifndef DEEPSD_CORE_MODEL_H_
#define DEEPSD_CORE_MODEL_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/deepsd_config.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "util/deadline.h"

namespace deepsd {
namespace core {

/// The DeepSD network (paper Sections IV and V).
///
/// Basic mode (Fig 3): identity part (embeddings of AreaID / TimeID /
/// WeekID) + supply-demand block (3-layer perceptron over V_sd) + optional
/// weather / traffic blocks attached with inter-block residual learning +
/// linear head.
///
/// Advanced mode (Fig 7): the order part becomes three extended blocks
/// (supply-demand, last-call, waiting-time). Each extended block forms
/// empirical vectors E = Σ_w p(w)·H(w) with softmax weights p learnt from
/// (AreaID, WeekID), projects V, E^t, E^{t+10} to R^16, estimates
/// Proj(V^{t+10}) = Proj(E^{t+10}) ⊕ Proj(V^t) ⊖ Proj(E^t) and feeds the
/// four projections through FC64/FC32 (Fig 9). Blocks chain through
/// residual learning exactly like the environment blocks.
///
/// Ablations: `use_residual=false` concatenates blocks instead (Fig 14,
/// Table V); `use_embedding=false` replaces every embedding with one-hot
/// (Table III); `use_weather`/`use_traffic` give Fig 13's cases A/B/C.
///
/// Parameters live in an external ParameterStore and are created by name,
/// so constructing a *larger* model over a store that already holds a
/// trained smaller model re-binds the shared blocks — this is the paper's
/// fine-tuning extendability story (Sec V-C, Fig 16).
class DeepSDModel {
 public:
  enum class Mode { kBasic, kAdvanced };

  DeepSDModel(const DeepSDConfig& config, Mode mode, nn::ParameterStore* store,
              util::Rng* rng);

  const DeepSDConfig& config() const { return config_; }
  Mode mode() const { return mode_; }

  /// Nodes of one forward graph that hold each extended block's weekday
  /// weights p and Proj(E^{t+10}), per signal {sd, lc, wt}; -1 for a signal
  /// the model lacks.
  struct ExtendedNodes {
    std::array<nn::NodeId, 3> p{-1, -1, -1};
    std::array<nn::NodeId, 3> proj_e10{-1, -1, -1};
  };

  /// Builds the forward graph for one batch; returns the [B,1] prediction
  /// node. Dropout follows g->training(). A batch with projections reads p
  /// and Proj(E^t) from the batch instead of computing them; the rest of
  /// the graph, and every row's bits, are the same. `nodes`, when given,
  /// receives the extended blocks' p and Proj(E^{t+10}) nodes. The batch's
  /// feature blocks enter the graph as views, so `batch` must outlive every
  /// read of the graph's values and its Backward.
  nn::NodeId Forward(nn::Graph* g, const Batch& batch,
                     ExtendedNodes* nodes = nullptr) const;

  /// Inference over an input source (eval mode, batched). Predictions are
  /// clamped at 0 when config().clamp_nonnegative.
  std::vector<float> Predict(const InputSource& source,
                             int batch_size = 256) const;

  /// Convenience overload over materialized inputs; reads them in place.
  std::vector<float> Predict(const std::vector<feature::ModelInput>& inputs,
                             int batch_size = 256) const;

  /// Where a forward writes each row's extended-block state for reuse at
  /// later ticks: per signal s, the weekday weights p ([rows, 7] at p[s])
  /// and Proj(E^{t+10}) ([rows, proj_dim] at proj_e10[s]), row-major from
  /// the first forwarded row. Signals the model lacks are left unwritten.
  struct ExtendedState {
    std::array<float*, 3> p{};
    std::array<float*, 3> proj_e10{};
  };

  /// Inference over rows [begin, end) of an assembled batch, written to
  /// out[0, end - begin). The rows run in chunks of `batch_size` that read
  /// the batch in place. A row's prediction never depends on which rows
  /// share its chunk, so every overload gives the same bits for the same
  /// features. Each chunk starts only while `deadline` holds: returns
  /// false, with `out` partly unwritten, when it expired first. `state`
  /// (advanced mode) also receives every row's extended-block state.
  bool PredictRows(const Batch& batch, size_t begin, size_t end,
                   int batch_size, float* out, util::Deadline deadline,
                   const ExtendedState* state) const;

  /// Appends a stamp of every parameter that p and the projections read:
  /// each one's version() and its int8 calibration. Equal stamps mean a
  /// cached p or Proj(·) row is still what the model would compute.
  /// Advanced mode only.
  void ExtendedStamp(std::vector<uint64_t>* out) const;

  /// The learnt 7-dim day-of-week combining weights p for (area, week) from
  /// the extended supply-demand block (paper Eq. 1 / Fig 15). Advanced mode
  /// only. `signal`: 0=supply-demand, 1=last-call, 2=waiting-time.
  std::array<float, data::kDaysPerWeek> CombiningWeights(int area_id,
                                                         int week_id,
                                                         int signal = 0) const;

  /// Area embedding table (Table IV / Fig 12 analyses). Null when the model
  /// was built with one-hot representation.
  const nn::Embedding* area_embedding() const { return area_embed_.get(); }

  /// Parameter-name prefixes of the environment blocks (for freezing).
  static constexpr const char* kWeatherPrefix = "weather.";
  static constexpr const char* kTrafficPrefix = "traffic.";

 private:
  /// The eval forward over rows [0, n) in parallel chunks of `batch_size`:
  /// `chunk(begin, end, scratch)` returns the chunk's batch, built in the
  /// worker's reusable `scratch` or borrowed. Writes out[0, n) (and
  /// `state`'s rows); false when `deadline` expired before some chunk.
  bool ForwardChunks(
      size_t n, int batch_size, float* out, util::Deadline deadline,
      const ExtendedState* state,
      const std::function<const Batch&(size_t, size_t, Batch*)>& chunk) const;
  nn::NodeId IdentityPart(nn::Graph* g, const Batch& batch) const;
  nn::NodeId WeatherVector(nn::Graph* g, const Batch& batch) const;
  /// The four-projection concat of one extended block (Fig 9), over the
  /// block's V, H^t and H^{t+10} (H^t unread when the batch has
  /// projections).
  nn::NodeId ExtendedQuad(nn::Graph* g, const Batch& batch, int signal,
                          const nn::Tensor& v, const nn::Tensor& h,
                          const nn::Tensor& h10, ExtendedNodes* nodes) const;
  /// FC layer followed by LReL — fused into one kernel pass when the
  /// configured alpha permits (alpha > 0), the unfused op pair otherwise.
  /// Both paths are bitwise identical.
  nn::NodeId FcLRel(nn::Graph* g, const nn::Linear& fc, nn::NodeId in) const;
  /// Two stacked FC layers with LReL: FC_hidden1 → FC_hidden2.
  nn::NodeId BlockMlp(nn::Graph* g, const nn::Linear& fc1,
                      const nn::Linear& fc2, nn::NodeId in) const;
  /// Residual attachment: x ⊕ dropout(FC32(FC64(concat(x, extra)))) when
  /// residual learning is on; dropout(FC32(FC64(extra))) when off.
  nn::NodeId AttachBlock(nn::Graph* g, const nn::Linear& fc1,
                         const nn::Linear& fc2, nn::NodeId x,
                         nn::NodeId extra,
                         std::vector<nn::NodeId>* concat_parts) const;

  DeepSDConfig config_;
  Mode mode_;
  nn::ParameterStore* store_;

  // Identity part (embedding or one-hot).
  std::unique_ptr<nn::Embedding> area_embed_;
  std::unique_ptr<nn::Embedding> time_embed_;
  std::unique_ptr<nn::Embedding> week_embed_;
  std::unique_ptr<nn::Embedding> weather_embed_;
  std::unique_ptr<nn::OneHot> area_onehot_;
  std::unique_ptr<nn::OneHot> time_onehot_;
  std::unique_ptr<nn::OneHot> week_onehot_;
  std::unique_ptr<nn::OneHot> weather_onehot_;

  // Basic order part.
  std::unique_ptr<nn::Linear> sd_fc1_, sd_fc2_;

  // Advanced order part, per signal {sd, lc, wt}.
  struct ExtendedBlock {
    std::unique_ptr<nn::Linear> softmax;  // (area+week dims) → 7
    std::unique_ptr<nn::Linear> proj;     // 2L → proj_dim
    std::unique_ptr<nn::Linear> fc1, fc2;
  };
  std::array<ExtendedBlock, 3> ext_;

  // Environment part.
  std::unique_ptr<nn::Linear> wc_fc1_, wc_fc2_;
  std::unique_ptr<nn::Linear> tc_fc1_, tc_fc2_;

  // Head.
  std::unique_ptr<nn::Linear> head_fc_, head_out_;
};

}  // namespace core
}  // namespace deepsd

#endif  // DEEPSD_CORE_MODEL_H_
