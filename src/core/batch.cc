#include "core/batch.h"

#include <numeric>

#include "util/logging.h"

namespace deepsd {
namespace core {

namespace {

using FloatField = std::vector<float> feature::ModelInput::*;

nn::Tensor Pack(std::span<const feature::ModelInput> inputs, FloatField field) {
  const std::vector<float>& first = inputs[0].*field;
  nn::Tensor t(static_cast<int>(inputs.size()), static_cast<int>(first.size()));
  for (size_t b = 0; b < inputs.size(); ++b) {
    const std::vector<float>& src = inputs[b].*field;
    DEEPSD_CHECK(src.size() == first.size());
    std::copy(src.begin(), src.end(), t.row(static_cast<int>(b)));
  }
  return t;
}

/// Reshapes `t` to rows×cols over its own storage (capacity is kept).
void Reshape(nn::Tensor* t, int rows, int cols) {
  if (t->rows() == rows && t->cols() == cols && !t->is_view()) return;
  std::vector<float> storage =
      t->is_view() ? std::vector<float>() : t->ReleaseStorage();
  storage.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
  *t = nn::Tensor(rows, cols, std::move(storage));
}

/// Rows [begin, end) of `t` as a view (empty stays empty).
nn::Tensor RowView(const nn::Tensor& t, size_t begin, size_t end) {
  if (t.cols() == 0) return nn::Tensor();
  return nn::Tensor::View(t.row(static_cast<int>(begin)),
                          static_cast<int>(end - begin), t.cols());
}

std::vector<float> RowVector(const nn::Tensor& t, int row) {
  if (t.cols() == 0) return {};
  return std::vector<float>(t.row(row), t.row(row) + t.cols());
}

}  // namespace

Batch PackBatch(std::span<const feature::ModelInput> inputs) {
  DEEPSD_CHECK(!inputs.empty());
  Batch batch;
  batch.size = static_cast<int>(inputs.size());
  const feature::ModelInput& first = inputs[0];
  batch.has_advanced = !first.h_sd.empty();

  batch.area_ids.reserve(inputs.size());
  batch.time_ids.reserve(inputs.size());
  batch.week_ids.reserve(inputs.size());
  for (const feature::ModelInput& in : inputs) {
    batch.area_ids.push_back(in.area_id);
    batch.time_ids.push_back(in.time_id);
    batch.week_ids.push_back(in.week_id);
  }

  batch.v_sd = Pack(inputs, &feature::ModelInput::v_sd);
  if (batch.has_advanced) {
    batch.h_sd = Pack(inputs, &feature::ModelInput::h_sd);
    batch.h_sd10 = Pack(inputs, &feature::ModelInput::h_sd10);
    batch.v_lc = Pack(inputs, &feature::ModelInput::v_lc);
    batch.h_lc = Pack(inputs, &feature::ModelInput::h_lc);
    batch.h_lc10 = Pack(inputs, &feature::ModelInput::h_lc10);
    batch.v_wt = Pack(inputs, &feature::ModelInput::v_wt);
    batch.h_wt = Pack(inputs, &feature::ModelInput::h_wt);
    batch.h_wt10 = Pack(inputs, &feature::ModelInput::h_wt10);
  }

  size_t lags = first.weather_types.size();
  batch.weather_types_by_lag.assign(lags, {});
  for (size_t l = 0; l < lags; ++l) {
    batch.weather_types_by_lag[l].reserve(inputs.size());
    for (const feature::ModelInput& in : inputs) {
      batch.weather_types_by_lag[l].push_back(in.weather_types[l]);
    }
  }
  batch.weather_reals = Pack(inputs, &feature::ModelInput::weather_reals);
  batch.v_tc = Pack(inputs, &feature::ModelInput::v_tc);

  batch.target = nn::Tensor(batch.size, 1);
  for (size_t b = 0; b < inputs.size(); ++b) {
    batch.target.at(static_cast<int>(b), 0) = inputs[b].target_gap;
  }
  return batch;
}

Batch MakeBatch(const InputSource& source, const std::vector<size_t>& indices) {
  DEEPSD_CHECK(!indices.empty());
  std::vector<feature::ModelInput> inputs;
  inputs.reserve(indices.size());
  for (size_t idx : indices) inputs.push_back(source.Get(idx));
  return PackBatch(inputs);
}

Batch MakeBatch(const InputSource& source, size_t begin, size_t end) {
  std::vector<size_t> indices(end - begin);
  std::iota(indices.begin(), indices.end(), begin);
  return MakeBatch(source, indices);
}

void ShapeBatch(Batch* batch, int rows, int window, bool advanced,
                int proj_dim) {
  DEEPSD_CHECK(proj_dim == 0 || advanced);
  const int dim = 2 * window;
  const int hist = data::kDaysPerWeek * dim;
  const bool projections = proj_dim > 0;
  batch->size = rows;
  batch->has_advanced = advanced;
  batch->has_projections = projections;
  batch->area_ids.resize(static_cast<size_t>(rows));
  batch->time_ids.resize(static_cast<size_t>(rows));
  batch->week_ids.resize(static_cast<size_t>(rows));
  Reshape(&batch->v_sd, rows, dim);
  const int adv_rows = advanced ? rows : 0;
  for (nn::Tensor* v : {&batch->v_lc, &batch->v_wt}) {
    Reshape(v, adv_rows, advanced ? dim : 0);
  }
  for (nn::Tensor* h : {&batch->h_sd10, &batch->h_lc10, &batch->h_wt10}) {
    Reshape(h, adv_rows, advanced ? hist : 0);
  }
  const int ht_rows = projections ? 0 : adv_rows;
  for (nn::Tensor* h : {&batch->h_sd, &batch->h_lc, &batch->h_wt}) {
    Reshape(h, ht_rows, advanced && !projections ? hist : 0);
  }
  const int cache_rows = projections ? rows : 0;
  for (size_t s = 0; s < 3; ++s) {
    Reshape(&batch->weekday_p[s], cache_rows,
            projections ? data::kDaysPerWeek : 0);
    Reshape(&batch->proj_e[s], cache_rows, proj_dim);
  }
  batch->weather_types_by_lag.resize(static_cast<size_t>(window));
  for (std::vector<int>& ids : batch->weather_types_by_lag) {
    ids.resize(static_cast<size_t>(rows));
  }
  Reshape(&batch->weather_reals, rows, dim);
  Reshape(&batch->v_tc, rows, data::kCongestionLevels * window);
  batch->target = nn::Tensor();
}

void SliceRows(const Batch& full, size_t begin, size_t end, Batch* out) {
  DEEPSD_CHECK(begin <= end && end <= static_cast<size_t>(full.size));
  const auto b = static_cast<long>(begin);
  const auto e = static_cast<long>(end);
  out->size = static_cast<int>(end - begin);
  out->has_advanced = full.has_advanced;
  out->has_projections = full.has_projections;
  out->area_ids.assign(full.area_ids.begin() + b, full.area_ids.begin() + e);
  out->time_ids.assign(full.time_ids.begin() + b, full.time_ids.begin() + e);
  out->week_ids.assign(full.week_ids.begin() + b, full.week_ids.begin() + e);
  out->v_sd = RowView(full.v_sd, begin, end);
  out->h_sd = RowView(full.h_sd, begin, end);
  out->h_sd10 = RowView(full.h_sd10, begin, end);
  out->v_lc = RowView(full.v_lc, begin, end);
  out->h_lc = RowView(full.h_lc, begin, end);
  out->h_lc10 = RowView(full.h_lc10, begin, end);
  out->v_wt = RowView(full.v_wt, begin, end);
  out->h_wt = RowView(full.h_wt, begin, end);
  out->h_wt10 = RowView(full.h_wt10, begin, end);
  for (size_t s = 0; s < 3; ++s) {
    out->weekday_p[s] = RowView(full.weekday_p[s], begin, end);
    out->proj_e[s] = RowView(full.proj_e[s], begin, end);
  }
  out->weather_types_by_lag.resize(full.weather_types_by_lag.size());
  for (size_t l = 0; l < full.weather_types_by_lag.size(); ++l) {
    const std::vector<int>& ids = full.weather_types_by_lag[l];
    out->weather_types_by_lag[l].assign(ids.begin() + b, ids.begin() + e);
  }
  out->weather_reals = RowView(full.weather_reals, begin, end);
  out->v_tc = RowView(full.v_tc, begin, end);
  out->target = full.target.rows() == 0 ? nn::Tensor()
                                        : RowView(full.target, begin, end);
}

feature::ModelInput RowInput(const Batch& batch, int row) {
  DEEPSD_CHECK(!batch.has_projections);
  feature::ModelInput in;
  const size_t r = static_cast<size_t>(row);
  in.area_id = batch.area_ids[r];
  in.time_id = batch.time_ids[r];
  in.week_id = batch.week_ids[r];
  in.v_sd = RowVector(batch.v_sd, row);
  if (batch.has_advanced) {
    in.h_sd = RowVector(batch.h_sd, row);
    in.h_sd10 = RowVector(batch.h_sd10, row);
    in.v_lc = RowVector(batch.v_lc, row);
    in.h_lc = RowVector(batch.h_lc, row);
    in.h_lc10 = RowVector(batch.h_lc10, row);
    in.v_wt = RowVector(batch.v_wt, row);
    in.h_wt = RowVector(batch.h_wt, row);
    in.h_wt10 = RowVector(batch.h_wt10, row);
  }
  in.weather_types.reserve(batch.weather_types_by_lag.size());
  for (const std::vector<int>& ids : batch.weather_types_by_lag) {
    in.weather_types.push_back(ids[r]);
  }
  in.weather_reals = RowVector(batch.weather_reals, row);
  in.v_tc = RowVector(batch.v_tc, row);
  return in;
}

}  // namespace core
}  // namespace deepsd
