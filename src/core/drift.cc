#include "core/drift.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace deepsd {
namespace core {

size_t ReferenceHistogram::BucketOf(float v) const {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  return static_cast<size_t>(it - bounds.begin());
}

util::Status ReferenceHistogram::Validate() const {
  if (counts.empty() && bounds.empty()) return util::Status::OK();
  if (counts.size() != bounds.size() + 1) {
    return util::Status::InvalidArgument(
        "reference histogram: counts/bounds size mismatch (" +
        std::to_string(counts.size()) + " counts, " +
        std::to_string(bounds.size()) + " bounds)");
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i])) {
      return util::Status::InvalidArgument(
          "reference histogram: non-finite bound at index " +
          std::to_string(i));
    }
    if (i > 0 && bounds[i] <= bounds[i - 1]) {
      return util::Status::InvalidArgument(
          "reference histogram: bounds not strictly ascending at index " +
          std::to_string(i));
    }
  }
  return util::Status::OK();
}

float InputActivity(const feature::ModelInput& input) {
  return InputActivity(input.v_sd.data(), input.v_sd.size());
}

float InputActivity(const float* v_sd, size_t n) {
  float sum = 0;
  for (size_t i = 0; i < n; ++i) sum += v_sd[i];
  return sum;
}

ReferenceHistogram BuildInputReference(const InputSource& source, int bins,
                                       size_t max_items) {
  ReferenceHistogram ref;
  const size_t n = source.size();
  if (n == 0 || bins < 1 || max_items == 0) return ref;

  const size_t stride = n > max_items ? (n + max_items - 1) / max_items : 1;
  std::vector<float> values;
  values.reserve(n / stride + 1);
  for (size_t i = 0; i < n; i += stride) {
    values.push_back(InputActivity(source.Get(i)));
  }
  if (values.empty()) return ref;

  std::vector<float> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  // Quantile edges at k/bins for k = 1..bins-1, deduplicated: heavy ties
  // (e.g. many all-zero windows) collapse into one bucket instead of
  // producing empty zero-width ones.
  for (int k = 1; k < bins; ++k) {
    const size_t idx = std::min(
        sorted.size() - 1, static_cast<size_t>(k) * sorted.size() /
                               static_cast<size_t>(bins));
    const float edge = sorted[idx];
    if (ref.bounds.empty() || edge > ref.bounds.back()) {
      ref.bounds.push_back(edge);
    }
  }
  ref.counts.assign(ref.bounds.size() + 1, 0);
  for (float v : values) ++ref.counts[ref.BucketOf(v)];
  return ref;
}

util::Status PopulationStabilityIndex(const ReferenceHistogram& ref,
                                      const std::vector<uint64_t>& live,
                                      double* psi) {
  *psi = 0.0;
  if (ref.empty()) return util::Status::OK();
  DEEPSD_RETURN_IF_ERROR(ref.Validate());
  if (live.size() != ref.counts.size()) {
    return util::Status::InvalidArgument(
        "PSI: live bucket count " + std::to_string(live.size()) +
        " != reference bucket count " + std::to_string(ref.counts.size()));
  }
  // Single-bucket reference: both distributions put all mass in the one
  // bin, so p == q == 1 and the PSI is exactly 0 — return early rather
  // than relying on floating-point cancellation.
  if (ref.counts.size() == 1) return util::Status::OK();

  double ref_total = 0, live_total = 0;
  for (uint64_t c : ref.counts) ref_total += static_cast<double>(c);
  for (uint64_t c : live) live_total += static_cast<double>(c);
  if (ref_total <= 0 || live_total <= 0) return util::Status::OK();

  // Epsilon-smoothing: an empty bucket on either side contributes a large
  // but finite term instead of +inf.
  constexpr double kEps = 1e-4;
  double sum = 0;
  for (size_t b = 0; b < ref.counts.size(); ++b) {
    const double p =
        std::max(static_cast<double>(ref.counts[b]) / ref_total, kEps);
    const double q = std::max(static_cast<double>(live[b]) / live_total, kEps);
    sum += (q - p) * std::log(q / p);
  }
  *psi = sum;
  return util::Status::OK();
}

double PopulationStabilityIndex(const ReferenceHistogram& ref,
                                const std::vector<uint64_t>& live) {
  double psi = 0.0;
  if (!PopulationStabilityIndex(ref, live, &psi).ok()) return 0.0;
  return psi;
}

}  // namespace core
}  // namespace deepsd
