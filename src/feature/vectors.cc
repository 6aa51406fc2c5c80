#include "feature/vectors.h"

#include <algorithm>

#include "util/logging.h"

namespace deepsd {
namespace feature {

std::vector<float> SupplyDemandVector(const data::OrderDataset& dataset,
                                      int area, int day, int t, int window) {
  std::vector<float> v(2 * static_cast<size_t>(window), 0.0f);
  for (int l = 1; l <= window; ++l) {
    int ts = t - l;
    if (ts < 0) break;
    v[static_cast<size_t>(l - 1)] =
        static_cast<float>(dataset.ValidCount(area, day, ts));
    v[static_cast<size_t>(window + l - 1)] =
        static_cast<float>(dataset.InvalidCount(area, day, ts));
  }
  return v;
}

void AccumulateLastCallWaitingTime(std::span<const data::Order> orders, int t,
                                   int window, EpisodeScratch* scratch,
                                   float* lc, float* wt) {
  // Gather (pid, ts, valid) triples then reduce by pid. Window sizes are
  // tens of orders for typical areas, so a sort beats a hash map here.
  using Call = EpisodeScratch::Call;
  std::vector<Call>& calls = scratch->calls;
  calls.clear();
  for (const data::Order& o : orders) {
    calls.push_back({o.passenger_id, o.ts, o.valid});
  }
  std::sort(calls.begin(), calls.end(), [](const Call& a, const Call& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    return a.ts < b.ts;
  });

  // One episode per passenger: first call calls[i], last call calls[j].
  for (size_t i = 0; i < calls.size();) {
    size_t j = i;
    while (j + 1 < calls.size() && calls[j + 1].pid == calls[i].pid) ++j;
    const Call& last = calls[j];
    int l = t - last.ts;  // in [1, window]
    if (lc != nullptr && l >= 1 && l <= window) {
      lc[last.valid ? l - 1 : window + l - 1] += 1.0f;
    }
    int wait = last.ts - calls[i].ts;  // in [0, window-1]
    if (wt != nullptr && wait >= 0 && wait < window) {
      wt[last.valid ? wait : window + wait] += 1.0f;
    }
    i = j + 1;
  }
}

std::vector<float> LastCallVector(const data::OrderDataset& dataset, int area,
                                  int day, int t, int window) {
  std::vector<float> v(2 * static_cast<size_t>(window), 0.0f);
  EpisodeScratch scratch;
  AccumulateLastCallWaitingTime(dataset.OrdersInRange(area, day, t - window, t),
                                t, window, &scratch, v.data(), nullptr);
  return v;
}

std::vector<float> WaitingTimeVector(const data::OrderDataset& dataset,
                                     int area, int day, int t, int window) {
  std::vector<float> v(2 * static_cast<size_t>(window), 0.0f);
  EpisodeScratch scratch;
  AccumulateLastCallWaitingTime(dataset.OrdersInRange(area, day, t - window, t),
                                t, window, &scratch, nullptr, v.data());
  return v;
}

std::vector<double> DemandCurve(const data::OrderDataset& dataset, int area,
                                int day) {
  std::vector<double> curve(data::kMinutesPerDay, 0.0);
  for (int ts = 0; ts < data::kMinutesPerDay; ++ts) {
    curve[static_cast<size_t>(ts)] = dataset.ValidCount(area, day, ts) +
                                     dataset.InvalidCount(area, day, ts);
  }
  return curve;
}

std::vector<double> GapCurve(const data::OrderDataset& dataset, int area,
                             int day, int stride) {
  DEEPSD_CHECK(stride > 0);
  std::vector<double> curve;
  for (int t = 0; t + data::kGapWindow <= data::kMinutesPerDay; t += stride) {
    curve.push_back(dataset.Gap(area, day, t));
  }
  return curve;
}

}  // namespace feature
}  // namespace deepsd
