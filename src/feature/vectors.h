#ifndef DEEPSD_FEATURE_VECTORS_H_
#define DEEPSD_FEATURE_VECTORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace deepsd {
namespace feature {

/// Real-time supply-demand vector (paper Definition 5).
///
/// Returns a 2L vector: entry (l-1) for l in [1, L] is the number of *valid*
/// orders in `area` at timeslot t-l of `day`; entry (L + l - 1) is the number
/// of *invalid* orders at t-l. Minutes before the start of the day count 0.
std::vector<float> SupplyDemandVector(const data::OrderDataset& dataset,
                                      int area, int day, int t, int window);

/// Real-time last-call vector (paper Definition 6).
///
/// Among orders in [t-window, t), only each passenger's *last* order is
/// kept. Entry (l-1) counts passengers whose last call was at t-l and was
/// answered (valid); entry (L + l - 1) counts those whose last call at t-l
/// went unanswered.
std::vector<float> LastCallVector(const data::OrderDataset& dataset, int area,
                                  int day, int t, int window);

/// Real-time waiting-time vector (paper Definition 7).
///
/// For each passenger with orders in [t-window, t), the waiting time is
/// last_call_ts - first_call_ts (in minutes, 0 for a single call). Entry
/// (l-1) counts passengers who waited exactly l-1 minutes and whose last
/// call succeeded; entry (L + l - 1) counts those whose last call failed.
/// (The paper indexes waits by l in [1, L]; we map wait w to dimension w+1
/// so the common w = 0 case is representable.)
std::vector<float> WaitingTimeVector(const data::OrderDataset& dataset,
                                     int area, int day, int t, int window);

/// Reusable buffer of the per-passenger episode scan behind the last-call
/// and waiting-time vectors. Keeping one per thread makes repeated scans
/// allocation-free once its capacity has grown to the busiest window.
struct EpisodeScratch {
  struct Call {
    int32_t pid;
    int32_t ts;
    bool valid;
  };
  std::vector<Call> calls;
};

/// Adds the last-call and waiting-time counts at minute t to `lc` and `wt`
/// (2L floats each; either may be null) from one episode scan over
/// `orders`: one (area, day)'s orders in [t-window, t), as
/// OrderDataset::OrdersInRange returns them. Adds exactly what
/// LastCallVector / WaitingTimeVector return, one 1.0f per passenger.
void AccumulateLastCallWaitingTime(std::span<const data::Order> orders, int t,
                                   int window, EpisodeScratch* scratch,
                                   float* lc, float* wt);

/// Demand curve of one day at minute resolution: total orders (valid +
/// invalid) per minute. Used by the Fig. 1 / Fig. 12 reproductions.
std::vector<double> DemandCurve(const data::OrderDataset& dataset, int area,
                                int day);

/// Gap curve of one day: Gap(area, day, t) for t in [0, 1440) at `stride`.
std::vector<double> GapCurve(const data::OrderDataset& dataset, int area,
                             int day, int stride);

}  // namespace feature
}  // namespace deepsd

#endif  // DEEPSD_FEATURE_VECTORS_H_
