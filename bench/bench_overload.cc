// Overload behavior of the ServingQueue admission controller: the same
// request mix is offered at 1x, 5x, and 10x the sustainable rate (measured
// by calibration on this machine), each against a fresh queue with
// deadlines a few service times long. The output is a JSON table of
// admitted / shed-by-reason / deadline-miss counts and the p50/p99
// end-to-end latency of admitted requests, plus a verdict on the overload
// invariants of docs/robustness.md: admitted + shed == offered (nothing
// silently dropped), every accepted request resolves, and admitted p99
// stays bounded by the deadline instead of growing with offered load.
// Exits nonzero when any invariant breaks.
//
//   bench_overload [--areas=8] [--days=6] [--requests=150]
//                  [--json=BENCH_overload.json] [--metrics-out=m.jsonl]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/serving_probe.h"
#include "obs/metrics.h"
#include "obs/metrics_io.h"
#include "obs/obs.h"
#include "serving/online_predictor.h"
#include "serving/serving_queue.h"
#include "util/cli.h"
#include "util/deadline.h"
#include "util/string_util.h"

namespace deepsd {
namespace {

double PercentileUs(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

struct LoadResult {
  double mult = 0;
  serving::ServingQueueStats stats;
  size_t lost = 0;
  size_t deadline_misses = 0;
  double p50_us = 0, p99_us = 0;  // end-to-end latency of admitted requests
};

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown(
      {"areas", "days", "requests", "json", "metrics-out", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: bench_overload [--areas=8] [--days=6] "
                 "[--requests=150] [--json=BENCH_overload.json] "
                 "[--metrics-out=m.jsonl]\n",
                 st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }
  if (cli.Has("metrics-out")) obs::SetEnabled(true);

  sim::CityConfig city;
  city.num_areas = static_cast<int>(cli.GetInt("areas", 8));
  city.num_days = static_cast<int>(cli.GetInt("days", 6));
  city.seed = 42;
  const int requests = static_cast<int>(cli.GetInt("requests", 150));

  const std::unique_ptr<bench::ServingProbe> probe =
      bench::TrainServingProbe(city);
  serving::OnlinePredictor predictor(probe->model.get(),
                                     probe->assembler.get());
  probe->FeedMorning(predictor.buffer());
  const std::vector<int>& all_areas = probe->all_areas;

  const int64_t calib_start = util::NowSteadyUs();
  for (int i = 0; i < 8; ++i) {
    predictor.PredictBatch(all_areas, util::Deadline::Infinite());
  }
  const double service_us = std::max(
      static_cast<double>(util::NowSteadyUs() - calib_start) / 8.0, 50.0);
  const int64_t deadline_us =
      std::max<int64_t>(static_cast<int64_t>(service_us * 4), 500);
  std::printf("calibrated service %.0f us/request, deadline %lld us\n",
              service_us, static_cast<long long>(deadline_us));

  const double mults[] = {1.0, 5.0, 10.0};
  std::vector<LoadResult> results;
  bool ok = true;
  for (double mult : mults) {
    // A fresh queue per load level so EWMA and stats don't bleed across.
    serving::ServingQueueConfig qc;
    qc.capacity = 16;
    qc.num_workers = 1;
    qc.default_deadline_us = deadline_us;
    qc.watchdog_stuck_us = 10'000'000;
    serving::ServingQueue queue(&predictor, qc);

    const int64_t inter_us = static_cast<int64_t>(service_us / mult);
    std::vector<std::future<serving::ServingResponse>> futures;
    futures.reserve(static_cast<size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      futures.push_back(queue.Submit(all_areas));
      // Below ~50us the sleep's scheduling latency throttles the offered
      // load; an overloading level submits back to back instead.
      if (inter_us >= 50) {
        std::this_thread::sleep_for(std::chrono::microseconds(inter_us));
      }
    }

    LoadResult r;
    r.mult = mult;
    std::vector<int64_t> admitted_total_us;
    for (auto& f : futures) {
      if (f.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        ++r.lost;
        continue;
      }
      serving::ServingResponse resp = f.get();
      if (resp.admitted()) {
        admitted_total_us.push_back(resp.total_us);
        if (resp.deadline_missed) ++r.deadline_misses;
      }
    }
    queue.Drain();
    r.stats = queue.stats();
    r.p50_us = PercentileUs(admitted_total_us, 0.50);
    r.p99_us = PercentileUs(admitted_total_us, 0.99);
    std::printf(
        "load %4.0fx: offered %d admitted %llu shed %llu miss %zu "
        "p50 %.0f us p99 %.0f us\n",
        mult, requests, static_cast<unsigned long long>(r.stats.admitted),
        static_cast<unsigned long long>(r.stats.shed_total()),
        r.deadline_misses, r.p50_us, r.p99_us);

    if (r.lost != 0) {
      std::fprintf(stderr, "FAIL %gx: %zu request(s) never resolved\n",
                   mult, r.lost);
      ok = false;
    }
    if (r.stats.offered != r.stats.admitted + r.stats.shed_total()) {
      std::fprintf(stderr, "FAIL %gx: offered != admitted + shed\n", mult);
      ok = false;
    }
    if (r.stats.completed != r.stats.admitted) {
      std::fprintf(stderr, "FAIL %gx: admitted %llu but completed %llu\n",
                   mult, static_cast<unsigned long long>(r.stats.admitted),
                   static_cast<unsigned long long>(r.stats.completed));
      ok = false;
    }
    if (r.stats.admitted == 0) {
      std::fprintf(stderr, "FAIL %gx: everything was shed\n", mult);
      ok = false;
    }
    // The point of admission control: admitted latency stays bounded by
    // the deadline (plus abandon slack), it does not grow with offered
    // load the way an unbounded queue's would. 4x slack absorbs 1-core CI
    // scheduling noise; the unguarded queue would blow past it by orders
    // of magnitude at 10x.
    if (r.p99_us > static_cast<double>(deadline_us) * 4.0) {
      std::fprintf(stderr, "FAIL %gx: admitted p99 %.0f us > 4x deadline\n",
                   mult, r.p99_us);
      ok = false;
    }
    results.push_back(r);
  }

  std::string json = "{\n  \"requests_per_level\": " +
                     util::StrFormat("%d", requests) +
                     ",\n  \"service_us\": " +
                     util::StrFormat("%.1f", service_us) +
                     ",\n  \"deadline_us\": " +
                     util::StrFormat("%lld",
                                     static_cast<long long>(deadline_us)) +
                     ",\n  \"levels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const LoadResult& r = results[i];
    json += util::StrFormat(
        "    {\"load_mult\": %.0f, \"offered\": %llu, \"admitted\": %llu, "
        "\"shed\": %llu, \"shed_queue_full\": %llu, "
        "\"shed_deadline\": %llu, \"shed_rate_limited\": %llu, "
        "\"shed_breaker\": %llu, \"deadline_miss\": %zu, \"lost\": %zu, "
        "\"admitted_p50_us\": %.0f, \"admitted_p99_us\": %.0f}%s\n",
        r.mult, static_cast<unsigned long long>(r.stats.offered),
        static_cast<unsigned long long>(r.stats.admitted),
        static_cast<unsigned long long>(r.stats.shed_total()),
        static_cast<unsigned long long>(r.stats.shed_queue_full),
        static_cast<unsigned long long>(r.stats.shed_deadline),
        static_cast<unsigned long long>(r.stats.shed_rate_limited),
        static_cast<unsigned long long>(r.stats.shed_breaker),
        r.deadline_misses, r.lost, r.p50_us, r.p99_us,
        i + 1 < results.size() ? "," : "");
  }
  json += "  ],\n  \"invariants_ok\": ";
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
  if (cli.Has("metrics-out")) {
    st = obs::WriteJsonLines(obs::MetricsRegistry::Global().Snapshot(),
                             cli.GetString("metrics-out"));
    if (!st.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", cli.GetString("metrics-out").c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::Main(argc, argv); }
