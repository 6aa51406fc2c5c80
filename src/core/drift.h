#ifndef DEEPSD_CORE_DRIFT_H_
#define DEEPSD_CORE_DRIFT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch.h"
#include "util/status.h"

namespace deepsd {
namespace core {

/// Training-time reference distribution of one scalar input feature —
/// the anchor the serving side compares its live inputs against to score
/// input drift (PSI, docs/observability.md). Captured at checkpoint time
/// and carried inside the DSC1 checkpoint (version >= 2), so a served
/// model always travels with the distribution it was trained on.
struct ReferenceHistogram {
  /// Ascending bucket upper edges; counts has bounds.size() + 1 entries,
  /// the last being the overflow bucket.
  std::vector<float> bounds;
  std::vector<uint64_t> counts;

  bool empty() const { return counts.empty(); }
  uint64_t total() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }
  /// Index of the bucket holding `v` (first bound >= v, else overflow).
  size_t BucketOf(float v) const;

  /// Structural validity: a non-empty histogram must have
  /// counts.size() == bounds.size() + 1 and strictly ascending, finite
  /// bounds. A reference that fails this (e.g. rebuilt from a corrupted
  /// checkpoint) would mis-bucket live values in BucketOf's binary search
  /// and score garbage, so drift consumers check before trusting it.
  /// An empty histogram (no counts, no bounds) is valid — it just scores 0.
  util::Status Validate() const;
};

/// Builds the reference over the per-item input activity — the sum of each
/// item's supply-demand block (ModelInput::v_sd), i.e. how much order
/// traffic the look-back window held — sampling at most `max_items` items
/// of `source` with an even stride. Edges are `bins` sample quantiles
/// (deduplicated, so low-variance features get fewer, wider buckets).
/// Deterministic for a fixed source. Empty when the source is empty.
ReferenceHistogram BuildInputReference(const InputSource& source,
                                       int bins = 12,
                                       size_t max_items = 4096);

/// The activity scalar BuildInputReference histograms — exposed so the
/// serving side bins the exact same quantity.
float InputActivity(const feature::ModelInput& input);
/// The same scalar over a supply-demand block held elsewhere (a batch row).
float InputActivity(const float* v_sd, size_t n);

/// Population Stability Index between the reference distribution and a
/// live count vector over the same buckets, with typed edge handling:
///
///   * empty reference, empty live, or zero totals → *psi = 0 (no
///     evidence is not drift);
///   * degenerate single-bucket reference (every sample tied at one
///     value, so quantile dedup collapsed the edges) → *psi = 0: with all
///     mass in the only bin on both sides, p == q == 1 exactly;
///   * malformed reference (count/bound size mismatch, non-finite or
///     non-ascending bounds) → InvalidArgument;
///   * live.size() != ref.counts.size() → InvalidArgument.
///
/// Both distributions are epsilon-smoothed so empty buckets contribute a
/// large but finite term, never inf/NaN. Rule of thumb: < 0.1 stable,
/// 0.1–0.25 moderate drift, > 0.25 major shift.
util::Status PopulationStabilityIndex(const ReferenceHistogram& ref,
                                      const std::vector<uint64_t>& live,
                                      double* psi);

/// Legacy non-erroring form: malformed inputs score 0 (callers that can
/// surface a typed error should prefer the Status overload).
double PopulationStabilityIndex(const ReferenceHistogram& ref,
                                const std::vector<uint64_t>& live);

}  // namespace core
}  // namespace deepsd

#endif  // DEEPSD_CORE_DRIFT_H_
