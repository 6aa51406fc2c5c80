// Sharded scatter-gather serving under load (docs/sharding.md): a
// 1/2/4/8-shard sweep of PredictCity throughput over the same synthetic
// city, each level gated on the shard-equivalence contract (bitwise
// identical to the direct predictor under an infinite deadline) and the
// scatter-gather accounting invariant (admitted + shed == offered, per
// shard and merged), followed by a skewed-hotspot scenario: one shard's
// queue is drowned by background load while citywide calls run under a
// finite budget. The hotspot gate is the whole point of sharding — the
// merged p99 stays bounded because the hot shard sheds and degrades its
// own slice instead of dragging every district's latency with it.
// Exits nonzero when any gate breaks.
//
// On the 1-core CI container the sweep's throughput is flat-to-noisy
// (shard workers multiplex one core — same caveat as
// bench_parallel_scaling); the JSON still records it per shard count so
// multi-core machines show the scaling curve, and the correctness gates
// bind everywhere.
//
//   bench_sharded_serving [--areas=64] [--days=6] [--requests=30]
//                         [--hotspot_requests=25]
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

#include "core/trainer.h"
#include "feature/feature_assembler.h"
#include "serving/online_predictor.h"
#include "serving/sharded_predictor.h"
#include "sim/city_sim.h"
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

/// Replays a fresh feature window for minute `t_now` of `serve_day` into
/// any sink with the AddOrder/AddWeather/AddTraffic/AdvanceTo surface.
template <typename Sink>
void ReplayFeeds(const data::OrderDataset& dataset, int serve_day, int t_now,
                 int window, Sink& sink) {
  sink.AdvanceTo(serve_day, t_now - window);
  for (int ts = t_now - window; ts < t_now; ++ts) {
    for (int a = 0; a < dataset.num_areas(); ++a) {
      for (const data::Order& o : dataset.OrdersAt(a, serve_day, ts)) {
        sink.AddOrder(o);
      }
      if (dataset.has_traffic()) {
        data::TrafficRecord tr = dataset.TrafficAt(a, serve_day, ts);
        tr.area = a;
        tr.day = serve_day;
        tr.ts = ts;
        sink.AddTraffic(tr);
      }
    }
    if (dataset.has_weather()) {
      data::WeatherRecord w = dataset.WeatherAt(serve_day, ts);
      w.day = serve_day;
      w.ts = ts;
      sink.AddWeather(w);
    }
  }
  sink.AdvanceTo(serve_day, t_now);
}

struct SweepResult {
  int shards = 0;
  double throughput_areas_per_s = 0;
  double p50_us = 0, p99_us = 0;  // per-PredictCity latency
  int ring_max_load = 0, ring_min_load = 0;
  bool equivalent = false;   // bitwise vs the direct predictor
  bool accounting_ok = false;  // admitted + shed == offered, everywhere
};

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
      {"areas", "days", "requests", "hotspot_requests", "json", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: bench_sharded_serving [--areas=64] [--days=6] "
                 "[--requests=30] [--hotspot_requests=25] "
                 "[--json=BENCH_sharded.json]\n",
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
  const int requests = static_cast<int>(cli.GetInt("requests", 30));
  const int hotspot_requests =
      static_cast<int>(cli.GetInt("hotspot_requests", 25));
  const int train_days = std::max(2, city.num_days * 2 / 3);
  const int serve_day = train_days;

  std::printf("simulating %d areas x %d days, training probe model...\n",
              city.num_areas, city.num_days);
  data::OrderDataset dataset = sim::SimulateCity(city);
  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&dataset, fc, 0, train_days);
  auto train_items = data::MakeItems(dataset, 0, train_days, 20, 1430, 60);
  core::DeepSDConfig config;
  config.num_areas = dataset.num_areas();
  config.use_weather = dataset.has_weather();
  config.use_traffic = dataset.has_traffic();
  nn::ParameterStore params;
  util::Rng rng(7);
  core::DeepSDModel model(config, core::DeepSDModel::Mode::kBasic, &params,
                          &rng);
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.best_k = 0;
  core::AssemblerSource train(&assembler, train_items, /*advanced=*/false);
  core::Trainer(tc).Train(&model, &params, train, train);

  const int t_now = 480;
  serving::OnlinePredictor direct(&model, &assembler);
  ReplayFeeds(dataset, serve_day, t_now, fc.window, direct.buffer());

  std::vector<int> all_areas(static_cast<size_t>(dataset.num_areas()));
  for (int a = 0; a < dataset.num_areas(); ++a) {
    all_areas[static_cast<size_t>(a)] = a;
  }
  const std::vector<float> want = direct.PredictBatch(all_areas).gaps;
  store::VersionedModel versions(
      std::make_shared<store::BorrowedVersion>(&model));

  // Calibrate one citywide call for the hotspot budget.
  const int64_t calib_start = util::NowSteadyUs();
  for (int i = 0; i < 4; ++i) {
    direct.PredictBatch(all_areas, util::Deadline::Infinite());
  }
  const double city_service_us = std::max(
      static_cast<double>(util::NowSteadyUs() - calib_start) / 4.0, 100.0);
  std::printf("calibrated citywide service %.0f us/call\n", city_service_us);

  bool ok = true;

  // ------------------------------------------------ shard-count sweep
  std::vector<SweepResult> sweep;
  for (int shards : {1, 2, 4, 8}) {
    serving::ShardedPredictorConfig sc;
    sc.ring.num_shards = shards;
    sc.queue.num_workers = 1;
    sc.queue.capacity = 64;
    sc.queue.watchdog_stuck_us = 0;
    serving::ShardedPredictor sharded(&versions, &assembler, sc);
    ReplayFeeds(dataset, serve_day, t_now, fc.window, sharded);

    SweepResult r;
    r.shards = shards;
    const std::vector<int> loads =
        sharded.ring().LoadHistogram(dataset.num_areas());
    r.ring_max_load = *std::max_element(loads.begin(), loads.end());
    r.ring_min_load = *std::min_element(loads.begin(), loads.end());

    // Equivalence gate: the merged answer is bitwise the direct one.
    serving::CityPredictResult first =
        sharded.PredictCity(all_areas, util::Deadline::Infinite());
    r.equivalent = first.gaps.size() == want.size() &&
                   first.tier == serving::FallbackTier::kNone &&
                   first.fully_served;
    if (r.equivalent) {
      for (size_t i = 0; i < want.size(); ++i) {
        if (first.gaps[i] != want[i]) {
          r.equivalent = false;
          break;
        }
      }
    }
    if (!r.equivalent) {
      std::fprintf(stderr,
                   "FAIL %d shards: PredictCity != direct predictor — the "
                   "equivalence contract is broken\n",
                   shards);
      ok = false;
    }

    // Timed loop: back-to-back citywide scatter-gathers.
    std::vector<int64_t> call_us;
    call_us.reserve(static_cast<size_t>(requests));
    const int64_t sweep_start = util::NowSteadyUs();
    for (int i = 0; i < requests; ++i) {
      const int64_t t0 = util::NowSteadyUs();
      serving::CityPredictResult c =
          sharded.PredictCity(all_areas, util::Deadline::Infinite());
      call_us.push_back(util::NowSteadyUs() - t0);
      if (c.gaps.size() != all_areas.size()) {
        std::fprintf(stderr, "FAIL %d shards: truncated answer\n", shards);
        ok = false;
      }
    }
    const double elapsed_s =
        static_cast<double>(util::NowSteadyUs() - sweep_start) / 1e6;
    r.throughput_areas_per_s =
        static_cast<double>(all_areas.size()) *
        static_cast<double>(requests) / std::max(elapsed_s, 1e-9);
    r.p50_us = PercentileUs(call_us, 0.50);
    r.p99_us = PercentileUs(call_us, 0.99);

    sharded.Drain();
    serving::ShardedStats stats = sharded.stats();
    r.accounting_ok = true;
    for (size_t s = 0; s < stats.per_shard.size(); ++s) {
      const serving::ServingQueueStats& q = stats.per_shard[s];
      if (q.offered != q.admitted + q.shed_total() ||
          q.completed != q.admitted) {
        std::fprintf(stderr, "FAIL %d shards: shard %zu accounting broke\n",
                     shards, s);
        r.accounting_ok = false;
      }
    }
    const serving::ServingQueueStats merged = stats.merged();
    if (merged.offered != merged.admitted + merged.shed_total()) {
      std::fprintf(stderr, "FAIL %d shards: merged accounting broke\n",
                   shards);
      r.accounting_ok = false;
    }
    if (!r.accounting_ok) ok = false;

    std::printf(
        "%d shard(s): %8.0f areas/s  p50 %6.0f us  p99 %6.0f us  "
        "ring %d..%d areas/shard  %s\n",
        shards, r.throughput_areas_per_s, r.p50_us, r.p99_us,
        r.ring_min_load, r.ring_max_load,
        r.equivalent && r.accounting_ok ? "OK" : "FAIL");
    sweep.push_back(r);
  }

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
    serving::ShardedPredictor sharded(&versions, &assembler, sc);
    ReplayFeeds(dataset, serve_day, t_now, fc.window, sharded);

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
      "{\n  \"areas\": %d,\n  \"requests_per_level\": %d,\n"
      "  \"city_service_us\": %.1f,\n  \"sweep\": [\n",
      dataset.num_areas(), requests, city_service_us);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    json += util::StrFormat(
        "    {\"shards\": %d, \"areas_per_s\": %.0f, \"p50_us\": %.0f, "
        "\"p99_us\": %.0f, \"ring_min_load\": %d, \"ring_max_load\": %d, "
        "\"equivalent\": %s, \"accounting_ok\": %s}%s\n",
        r.shards, r.throughput_areas_per_s, r.p50_us, r.p99_us,
        r.ring_min_load, r.ring_max_load, r.equivalent ? "true" : "false",
        r.accounting_ok ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
  }
  json += util::StrFormat(
      "  ],\n  \"hotspot\": {\"shards\": %d, \"hot_shard\": %d, "
      "\"p50_us\": %.0f, \"p99_us\": %.0f, \"p99_bound_us\": %.0f, "
      "\"hot_shed\": %llu, \"hot_deadline_misses\": %llu, "
      "\"sibling_shed\": %llu, \"sibling_deadline_misses\": %llu, "
      "\"fresh_siblings\": %s, \"bounded\": %s},\n",
      hot.shards, hot.hot_shard, hot.p50_us, hot.p99_us, hot.p99_bound_us,
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
