// Answer oracles. Each takes a served answer and what it must equal, and
// records a failure on any wrong, truncated, non-finite or version-mixed
// answer. They are plain functions so the self-test can feed them
// deliberately corrupted answers and prove they fail.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapter.h"

namespace perfbench {

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< Up to a few messages.
  /// Counts one operation; `error` empty means it passed.
  void Record(const std::string& error);
  void Merge(const Tally& other);
};

/// Bitwise equality of two answer vectors (same length, same bits).
bool SameBits(const std::vector<float>& a, const std::vector<float>& b);

/// Shape checks every served answer must pass: one finite gap per
/// requested area, and every shard slice pinned to the call's sequence.
std::string CheckShape(const Answer& served, size_t requested);

/// city_tick: a healthy full-city tick must be served at tier kNone, fully
/// served, and bitwise equal to the direct single-shard predictor.
std::string CheckTick(const Answer& served, size_t requested,
                      const std::vector<float>& direct, bool direct_tier_none);

/// area_queries: one model sequence per call, and (when `reference` is
/// given) bitwise equality with that version's reference answer.
std::string CheckQuery(const Answer& served, size_t requested,
                       const std::vector<float>* reference);

/// finetune_publish: the published artifact answers exactly like the
/// in-memory fine-tuned model, and serving moved to the new sequence.
std::string CheckPublish(const std::vector<float>& published,
                         const std::vector<float>& in_memory,
                         uint64_t serving_sequence, uint64_t expected_sequence);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
