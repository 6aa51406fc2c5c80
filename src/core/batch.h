#ifndef DEEPSD_CORE_BATCH_H_
#define DEEPSD_CORE_BATCH_H_

#include <array>
#include <span>
#include <vector>

#include "feature/feature_assembler.h"
#include "nn/tensor.h"

namespace deepsd {
namespace core {

/// Mini-batch of assembled features in tensor form, ready for the network.
/// Column layouts follow feature::ModelInput; `weather_types_by_lag[l][b]`
/// holds the weather-type id at lag l+1 for batch row b (one embedding
/// lookup per lag).
struct Batch {
  int size = 0;

  std::vector<int> area_ids;
  std::vector<int> time_ids;
  std::vector<int> week_ids;

  nn::Tensor v_sd;
  nn::Tensor h_sd, h_sd10;
  nn::Tensor v_lc, h_lc, h_lc10;
  nn::Tensor v_wt, h_wt, h_wt10;

  std::vector<std::vector<int>> weather_types_by_lag;
  nn::Tensor weather_reals;
  nn::Tensor v_tc;

  nn::Tensor target;  ///< [B,1] gap ground truth.

  /// Serving-cache inputs of the extended blocks, per signal {sd, lc, wt}:
  /// the weekday weights p [B,7] and Proj(E^t) [B,proj_dim]. A batch with
  /// `has_projections` carries these instead of h_sd/h_lc/h_wt (left
  /// empty), and the forward reads them in place of the softmax and the
  /// E^t projection (serving/online_predictor.h, projection ring).
  std::array<nn::Tensor, 3> weekday_p;
  std::array<nn::Tensor, 3> proj_e;

  bool has_advanced = false;
  bool has_projections = false;
};

/// Source of model inputs for training and inference. Implementations may
/// hold materialized ModelInputs or assemble them on demand — the advanced
/// model's features are ~7 KB per item, so lazy assembly is what makes
/// paper-scale training fit in memory.
class InputSource {
 public:
  virtual ~InputSource() = default;
  virtual size_t size() const = 0;
  virtual feature::ModelInput Get(size_t index) const = 0;
  /// Target gap of item `index` (cheaper than a full Get).
  virtual float Target(size_t index) const = 0;
};

/// InputSource over a pre-materialized vector.
class VectorSource : public InputSource {
 public:
  explicit VectorSource(std::vector<feature::ModelInput> inputs)
      : inputs_(std::move(inputs)) {}

  size_t size() const override { return inputs_.size(); }
  feature::ModelInput Get(size_t index) const override {
    return inputs_[index];
  }
  float Target(size_t index) const override {
    return inputs_[index].target_gap;
  }

 private:
  std::vector<feature::ModelInput> inputs_;
};

/// InputSource that assembles features lazily from a FeatureAssembler.
class AssemblerSource : public InputSource {
 public:
  AssemblerSource(const feature::FeatureAssembler* assembler,
                  std::vector<data::PredictionItem> items, bool advanced)
      : assembler_(assembler), items_(std::move(items)), advanced_(advanced) {}

  size_t size() const override { return items_.size(); }
  feature::ModelInput Get(size_t index) const override {
    return advanced_ ? assembler_->AssembleAdvanced(items_[index])
                     : assembler_->AssembleBasic(items_[index]);
  }
  float Target(size_t index) const override { return items_[index].gap; }

  const std::vector<data::PredictionItem>& items() const { return items_; }

 private:
  const feature::FeatureAssembler* assembler_;
  std::vector<data::PredictionItem> items_;
  bool advanced_;
};

/// Packs the items at `indices` of `source` into a Batch. All chosen items
/// must have consistent shapes (same window, all basic or all advanced).
Batch MakeBatch(const InputSource& source, const std::vector<size_t>& indices);

/// Packs the index range [begin, end).
Batch MakeBatch(const InputSource& source, size_t begin, size_t end);

/// Packs materialized inputs without copying them first.
Batch PackBatch(std::span<const feature::ModelInput> inputs);

/// Shapes `batch` for `rows` rows of window-`window` features, basic or
/// advanced, reusing its storage: a caller that refills one batch per
/// request allocates only when a request is larger than any before it.
/// Feature values are left unspecified for the caller to overwrite;
/// `target` is left empty. A `proj_dim` > 0 shapes the advanced batch with
/// projections instead (weekday_p, proj_e, and no H^t blocks).
void ShapeBatch(Batch* batch, int rows, int window, bool advanced,
                int proj_dim = 0);

/// Rows [begin, end) of `full` as `out`: the feature tensors become
/// read-only views into `full`'s storage, the ids are copied. `full` must
/// outlive every use of `out`.
void SliceRows(const Batch& full, size_t begin, size_t end, Batch* out);

/// Row `row` of `batch` as a ModelInput (target_gap 0). The batch must
/// carry every feature block (no projections).
feature::ModelInput RowInput(const Batch& batch, int row);

}  // namespace core
}  // namespace deepsd

#endif  // DEEPSD_CORE_BATCH_H_
