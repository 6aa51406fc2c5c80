#ifndef DEEPSD_TESTS_TEST_UTIL_H_
#define DEEPSD_TESTS_TEST_UTIL_H_

#include <numeric>
#include <vector>

#include "data/dataset.h"
#include "sim/city_sim.h"
#include "util/logging.h"

namespace deepsd {
namespace testing {

/// Hand-built micro dataset: 2 areas, 3 days, a handful of orders with
/// known valid/invalid layout. Passenger 100 fails at minute 100 and
/// retries at 102 (fails) and 105 (succeeds) in area 0 / day 0.
inline data::OrderDataset MakeMicroDataset() {
  data::OrderDatasetBuilder builder(/*num_areas=*/2, /*num_days=*/3,
                                    /*first_weekday=*/0);
  auto add = [&](int day, int ts, int pid, int area, bool valid) {
    data::Order o;
    o.day = day;
    o.ts = ts;
    o.passenger_id = pid;
    o.start_area = area;
    o.dest_area = (area + 1) % 2;
    o.valid = valid;
    builder.AddOrder(o);
  };
  // Area 0, day 0: the retry episode.
  add(0, 100, 100, 0, false);
  add(0, 102, 100, 0, false);
  add(0, 105, 100, 0, true);
  // Single-call passengers.
  add(0, 100, 101, 0, true);
  add(0, 101, 102, 0, true);
  add(0, 103, 103, 0, false);
  // Area 1, day 0.
  add(0, 100, 200, 1, true);
  add(0, 110, 201, 1, false);
  // Area 0, day 1 (same weekday grid +1).
  add(1, 100, 300, 0, true);
  add(1, 104, 301, 0, false);
  // Day 2 empty for area 0; area 1 gets one order.
  add(2, 500, 400, 1, true);

  // Weather: sunny everywhere except rain (type 3) on day 0 minutes 90-120.
  for (int d = 0; d < 3; ++d) {
    for (int ts = 0; ts < data::kMinutesPerDay; ++ts) {
      data::WeatherRecord w;
      w.day = d;
      w.ts = ts;
      w.type = (d == 0 && ts >= 90 && ts < 120) ? 3 : 0;
      w.temperature = 15.0f;
      w.pm25 = 60.0f;
      builder.AddWeather(w);
    }
  }
  // Traffic: constant quadruple.
  for (int a = 0; a < 2; ++a) {
    for (int d = 0; d < 3; ++d) {
      for (int ts = 0; ts < data::kMinutesPerDay; ++ts) {
        data::TrafficRecord t;
        t.area = a;
        t.day = d;
        t.ts = ts;
        t.level_counts[0] = 5;
        t.level_counts[1] = 10;
        t.level_counts[2] = 20;
        t.level_counts[3] = 65;
        builder.AddTraffic(t);
      }
    }
  }

  data::OrderDataset dataset;
  util::Status st = builder.Build(&dataset);
  DEEPSD_CHECK_MSG(st.ok(), st.ToString());
  return dataset;
}

/// Small simulated city shared by integration-style tests.
inline data::OrderDataset MakeSmallCity(int areas = 6, int days = 15,
                                        uint64_t seed = 123,
                                        sim::SimSummary* summary = nullptr) {
  sim::CityConfig config;
  config.num_areas = areas;
  config.num_days = days;
  config.seed = seed;
  config.mean_scale = 0.8;
  return sim::SimulateCity(config, summary);
}

/// Area ids 0..num_areas-1: a request for every area of the city.
inline std::vector<int> AllAreas(int num_areas) {
  std::vector<int> areas(static_cast<size_t>(num_areas));
  std::iota(areas.begin(), areas.end(), 0);
  return areas;
}

}  // namespace testing
}  // namespace deepsd

#endif  // DEEPSD_TESTS_TEST_UTIL_H_
