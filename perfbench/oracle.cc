#include "oracle.h"

#include <cmath>
#include <cstring>

namespace perfbench {

void Tally::Record(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (first_failures.size() < 5) first_failures.push_back(error);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.first_failures) {
    if (first_failures.size() < 5) first_failures.push_back(f);
  }
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::string CheckShape(const Answer& served, size_t requested) {
  if (served.gaps.size() != requested) {
    return "truncated answer: " + std::to_string(served.gaps.size()) +
           " gaps for " + std::to_string(requested) + " areas";
  }
  for (float g : served.gaps) {
    if (!std::isfinite(g)) return "non-finite gap";
  }
  for (const ShardTiming& s : served.shards) {
    if (s.sequence != served.sequence) {
      return "version-mixed answer: shard " + std::to_string(s.shard) +
             " served sequence " + std::to_string(s.sequence) +
             ", call pinned " + std::to_string(served.sequence);
    }
  }
  return "";
}

std::string CheckTick(const Answer& served, size_t requested,
                      const std::vector<float>& direct,
                      bool direct_tier_none) {
  std::string err = CheckShape(served, requested);
  if (!err.empty()) return err;
  if (!served.tier_none || !served.fully_served || served.deadline_expired) {
    return "healthy tick served degraded";
  }
  if (!direct_tier_none) return "direct reference degraded";
  if (!SameBits(served.gaps, direct)) {
    return "tick differs from the direct single-shard predictor";
  }
  return "";
}

std::string CheckQuery(const Answer& served, size_t requested,
                       const std::vector<float>* reference) {
  std::string err = CheckShape(served, requested);
  if (!err.empty()) return err;
  if (served.sequence == 0) return "answer pinned no model version";
  if (reference != nullptr && !SameBits(served.gaps, *reference)) {
    return "query differs from its version's reference";
  }
  return "";
}

std::string CheckPublish(const std::vector<float>& published,
                         const std::vector<float>& in_memory,
                         uint64_t serving_sequence,
                         uint64_t expected_sequence) {
  if (published.empty() || !SameBits(published, in_memory)) {
    return "published artifact answers differ from the in-memory model";
  }
  if (serving_sequence != expected_sequence) {
    return "serving did not move to the published version";
  }
  return "";
}

}  // namespace perfbench
