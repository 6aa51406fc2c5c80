// deepsd_inspect: summarize a saved dataset — volumes, gap distribution,
// per-area activity, weather mix. (Model artifacts: deepsd_store inspect.)
//
//   deepsd_inspect --data=city.bin

#include <algorithm>
#include <cstdio>
#include <map>

#include "data/serialize.h"
#include "util/cli.h"
#include "util/stats.h"
#include <vector>

namespace {

int InspectData(const std::string& path) {
  using namespace deepsd;
  data::OrderDataset ds;
  util::Status st = data::LoadDataset(path, &ds);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("dataset %s\n", path.c_str());
  std::printf("  areas: %d  days: %d (day 0 weekday %d)  orders: %zu  "
              "passengers: %d\n",
              ds.num_areas(), ds.num_days(), ds.first_weekday(),
              ds.num_orders(), ds.num_passengers());
  std::printf("  weather: %s  traffic: %s\n",
              ds.has_weather() ? "yes" : "no", ds.has_traffic() ? "yes" : "no");

  size_t invalid = 0;
  for (const data::Order& o : ds.orders()) invalid += !o.valid;
  std::printf("  unmet requests: %zu (%.1f%%)\n", invalid,
              100.0 * invalid / std::max<size_t>(ds.num_orders(), 1));

  // Gap distribution over a busy-hours grid.
  util::RunningStats gap_stats;
  std::map<int, int> gap_hist;
  size_t zero = 0, count = 0;
  for (int a = 0; a < ds.num_areas(); ++a) {
    for (int d = 0; d < ds.num_days(); ++d) {
      for (int t = 450; t <= 1410; t += 30) {
        int g = ds.Gap(a, d, t);
        gap_stats.Add(g);
        ++gap_hist[std::min(g / 10 * 10, 100)];
        zero += (g == 0);
        ++count;
      }
    }
  }
  std::printf("  gaps (07:30-23:30 grid): mean %.2f, sd %.2f, max %.0f, "
              "zero %.1f%%\n",
              gap_stats.mean(), gap_stats.stddev(), gap_stats.max(),
              100.0 * zero / std::max<size_t>(count, 1));
  std::printf("  gap histogram (bucketed by 10):\n");
  for (auto [bucket, n] : gap_hist) {
    std::printf("    %3d%s %8d  %s\n", bucket, bucket == 100 ? "+" : " ", n,
                std::string(static_cast<size_t>(
                                60.0 * n / std::max<size_t>(count, 1)),
                            '#')
                    .c_str());
  }

  // Per-area volumes (top 10).
  std::vector<std::pair<int, int>> volume;  // (orders, area)
  for (int a = 0; a < ds.num_areas(); ++a) {
    int v = 0;
    for (int d = 0; d < ds.num_days(); ++d) {
      v += ds.ValidInRange(a, d, 0, data::kMinutesPerDay) +
           ds.InvalidInRange(a, d, 0, data::kMinutesPerDay);
    }
    volume.push_back({v, a});
  }
  std::sort(volume.rbegin(), volume.rend());
  std::printf("  busiest areas:");
  for (size_t i = 0; i < volume.size() && i < 10; ++i) {
    std::printf(" %d(%dk)", volume[i].second, volume[i].first / 1000);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  deepsd::util::CommandLine cli(argc, argv);
  deepsd::util::Status st = cli.CheckKnown({"data", "help"});
  if (!st.ok() || cli.GetBool("help", false) || !cli.Has("data")) {
    std::fprintf(stderr, "%s\nusage: deepsd_inspect --data=city.bin\n",
                 st.ToString().c_str());
    return 2;
  }
  return InspectData(cli.GetString("data"));
}
