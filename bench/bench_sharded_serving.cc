// Sharded serving under a skewed hotspot (docs/sharding.md): one shard's
// queue is drowned by background load while citywide PredictCity calls run
// under a finite budget. The gate is the whole point of sharding — the
// merged p99 stays bounded because the hot shard sheds and degrades its
// own slice instead of dragging every district's latency with it, and the
// sibling slices stay fresh. Exits nonzero when any gate breaks.
//
// Served ≡ direct is not re-checked here: the ctest spine
// (ShardedPredictorTest, ShardRingTest) and `deepsd_simulate --shards`
// hold it.
//
//   bench_sharded_serving [--areas=64] [--days=6] [--hotspot_requests=25]
//                         [--json=BENCH_sharded.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/serving_probe.h"
#include "serving/online_predictor.h"
#include "serving/sharded_predictor.h"
#include "store/versioned_model.h"
#include "util/cli.h"
#include "util/deadline.h"
#include "util/string_util.h"

namespace deepsd {
namespace {

double PercentileUs(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

struct HotspotResult {
  int shards = 0;
  int hot_shard = -1;
  uint64_t hot_shed = 0, hot_misses = 0;
  uint64_t sibling_shed = 0, sibling_misses = 0;
  double p50_us = 0, p99_us = 0;  // merged PredictCity latency under fire
  double p99_bound_us = 0;
  size_t incomplete_calls = 0;
  bool fresh_siblings = true;  // every sibling slice stayed tier kNone
  bool bounded = false;
};

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown(
      {"areas", "days", "hotspot_requests", "json", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: bench_sharded_serving [--areas=64] [--days=6] "
                 "[--hotspot_requests=25] [--json=BENCH_sharded.json]\n",
                 st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }

  sim::CityConfig city;
  city.num_areas = static_cast<int>(cli.GetInt("areas", 64));
  city.num_days = static_cast<int>(cli.GetInt("days", 6));
  city.seed = 42;
  // Keep generation cheap at large --areas: the bench measures serving,
  // not the generator.
  if (city.num_areas > 200) city.mean_scale = 0.2;
  const int hotspot_requests =
      static_cast<int>(cli.GetInt("hotspot_requests", 25));

  // A fresh feature window up to 08:00 of the serve day, so calls run at
  // tier kNone unless the hotspot degrades them.
  const std::unique_ptr<bench::ServingProbe> probe =
      bench::TrainServingProbe(city);
  serving::OnlinePredictor direct(probe->model.get(), probe->assembler.get());
  probe->FeedMorning(direct.buffer());
  const std::vector<int>& all_areas = probe->all_areas;
  store::VersionedModel versions(
      std::make_shared<store::BorrowedVersion>(probe->model.get()));

  // Calibrate one citywide call for the hotspot budget, after one untimed
  // call has warmed the predictor's projection cache.
  direct.PredictBatch(all_areas);
  const int64_t calib_start = util::NowSteadyUs();
  for (int i = 0; i < 4; ++i) {
    direct.PredictBatch(all_areas, util::Deadline::Infinite());
  }
  const double city_service_us = std::max(
      static_cast<double>(util::NowSteadyUs() - calib_start) / 4.0, 100.0);
  std::printf("calibrated citywide service %.0f us/call\n", city_service_us);

  bool ok = true;

  // ------------------------------------------------ skewed hotspot
  // One shard's queue is drowned by a background blocker loop; citywide
  // calls run under a finite per-call budget. The gate: the merged p99
  // stays bounded (the hot shard sheds or misses and answers its slice
  // from the cheap path) and sibling slices stay fresh — the surge never
  // leaves its district.
  HotspotResult hot;
  {
    const int shards = 4;
    serving::ShardedPredictorConfig sc;
    sc.ring.num_shards = shards;
    sc.queue.num_workers = 1;
    sc.queue.capacity = 4;
    sc.queue.watchdog_stuck_us = 0;
    serving::ShardedPredictor sharded(&versions, probe->assembler.get(), sc);
    probe->FeedMorning(sharded);

    hot.shards = shards;
    hot.hot_shard = sharded.ShardOf(all_areas[0]);
    // The per-call budget: a healthy citywide call fits comfortably; a
    // call stuck behind the blocker's multi-x batches does not.
    const int64_t budget_us =
        std::max<int64_t>(static_cast<int64_t>(city_service_us * 3), 2000);
    hot.p99_bound_us = static_cast<double>(budget_us) * 4.0;

    // Background fire on the hot shard only: repeated large direct
    // submissions that keep its single worker saturated.
    std::vector<int> hot_areas;
    for (int a : all_areas) {
      if (sharded.ShardOf(a) == hot.hot_shard) hot_areas.push_back(a);
    }
    std::vector<int> blocker;
    for (int i = 0; i < 6; ++i) {
      blocker.insert(blocker.end(), hot_areas.begin(), hot_areas.end());
    }
    std::atomic<bool> stop{false};
    std::thread arsonist([&] {
      // Keep more submissions outstanding than the queue holds (capacity
      // 4 + 1 in flight), so the hot queue is persistently overfull: the
      // excess sheds kShedQueueFull and any citywide slice racing in
      // finds a saturated queue. Waiting only on the oldest future paces
      // the loop at the worker's service rate.
      std::deque<std::future<serving::ServingResponse>> inflight;
      while (!stop.load(std::memory_order_acquire)) {
        inflight.push_back(sharded.shard_queue(hot.hot_shard)
                               .Submit(blocker, util::Deadline::Infinite()));
        if (inflight.size() >= 7) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });

    std::vector<int64_t> call_us;
    for (int i = 0; i < hotspot_requests; ++i) {
      const int64_t t0 = util::NowSteadyUs();
      serving::CityPredictResult c =
          sharded.PredictCity(all_areas, util::Deadline::After(budget_us));
      call_us.push_back(util::NowSteadyUs() - t0);
      if (c.gaps.size() != all_areas.size()) ++hot.incomplete_calls;
      for (const serving::ShardOutcome& o : c.shards) {
        if (o.shard == hot.hot_shard) continue;
        if (o.tier != serving::FallbackTier::kNone ||
            o.verdict != serving::AdmitVerdict::kAdmitted) {
          hot.fresh_siblings = false;
        }
      }
    }
    stop.store(true, std::memory_order_release);
    arsonist.join();
    sharded.Drain();

    serving::ShardedStats stats = sharded.stats();
    for (int s = 0; s < shards; ++s) {
      const serving::ServingQueueStats& q =
          stats.per_shard[static_cast<size_t>(s)];
      if (s == hot.hot_shard) {
        hot.hot_shed = q.shed_total();
        hot.hot_misses = q.deadline_misses;
      } else {
        hot.sibling_shed += q.shed_total();
        hot.sibling_misses += q.deadline_misses;
      }
    }
    hot.p50_us = PercentileUs(call_us, 0.50);
    hot.p99_us = PercentileUs(call_us, 0.99);
    hot.bounded = hot.p99_us <= hot.p99_bound_us;

    std::printf(
        "hotspot (%d shards, hot=%d): p50 %.0f us p99 %.0f us "
        "(bound %.0f us)  hot shed %llu miss %llu  sibling shed %llu "
        "miss %llu  %s\n",
        shards, hot.hot_shard, hot.p50_us, hot.p99_us, hot.p99_bound_us,
        static_cast<unsigned long long>(hot.hot_shed),
        static_cast<unsigned long long>(hot.hot_misses),
        static_cast<unsigned long long>(hot.sibling_shed),
        static_cast<unsigned long long>(hot.sibling_misses),
        hot.bounded ? "OK" : "FAIL");

    if (!hot.bounded) {
      std::fprintf(stderr,
                   "FAIL hotspot: merged p99 %.0f us exceeds %.0f us — a "
                   "drowned shard is stalling citywide calls\n",
                   hot.p99_us, hot.p99_bound_us);
      ok = false;
    }
    if (hot.incomplete_calls != 0) {
      std::fprintf(stderr, "FAIL hotspot: %zu truncated answer(s)\n",
                   hot.incomplete_calls);
      ok = false;
    }
    if (!hot.fresh_siblings) {
      std::fprintf(stderr,
                   "FAIL hotspot: a sibling shard degraded — the hot "
                   "district's surge leaked\n");
      ok = false;
    }
    if (hot.hot_shed + hot.hot_misses == 0) {
      std::fprintf(stderr,
                   "FAIL hotspot: the hot shard never shed or missed — the "
                   "scenario applied no pressure\n");
      ok = false;
    }
  }

  // ------------------------------------------------ JSON
  std::string json = util::StrFormat(
      "{\n  \"areas\": %d,\n  \"city_service_us\": %.1f,\n"
      "  \"hotspot\": {\"shards\": %d, \"hot_shard\": %d, "
      "\"p50_us\": %.0f, \"p99_us\": %.0f, \"p99_bound_us\": %.0f, "
      "\"hot_shed\": %llu, \"hot_deadline_misses\": %llu, "
      "\"sibling_shed\": %llu, \"sibling_deadline_misses\": %llu, "
      "\"fresh_siblings\": %s, \"bounded\": %s},\n",
      probe->dataset.num_areas(), city_service_us, hot.shards, hot.hot_shard,
      hot.p50_us, hot.p99_us, hot.p99_bound_us,
      static_cast<unsigned long long>(hot.hot_shed),
      static_cast<unsigned long long>(hot.hot_misses),
      static_cast<unsigned long long>(hot.sibling_shed),
      static_cast<unsigned long long>(hot.sibling_misses),
      hot.fresh_siblings ? "true" : "false", hot.bounded ? "true" : "false");
  json += "  \"invariants_ok\": ";
  json += ok ? "true" : "false";
  json += "\n}\n";

  std::printf("\n%s", json.c_str());
  if (cli.Has("json")) {
    std::string path = cli.GetString("json");
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::Main(argc, argv); }
