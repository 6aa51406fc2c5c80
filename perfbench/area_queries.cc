// area_queries: open loop. Poisson arrivals at each rate of a fixed ladder;
// each request asks PredictCity for 1..32 areas, each area's shard drawn
// Zipf-skewed so shard 0 runs hot, under a fixed deadline counted from the
// request's due time. Latency is timed from each due time. A last, closed
// phase measures the rate the program sustains. Meanwhile the order stream
// ingests one simulated minute per fixed wall interval and the serving
// version flips between two prebuilt artifacts at a fixed interval.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Request {
  int64_t due_ns = 0;  ///< Offset from the rung's start.
  std::vector<int> areas;
};

struct Done {
  int64_t lag_ns = 0;      ///< Start minus due.
  int64_t latency_ns = 0;  ///< End minus due.
  bool miss = false;       ///< Shed, expired, or over the latency limit.
};

/// A served answer kept for the post-run reference check.
struct Sample {
  std::vector<int> areas;
  Answer answer;
  int clock_abs = 0;  ///< Stream clock (absolute minute) during the call.
};

double Uniform01(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

/// Seeded request schedule: Poisson arrivals at `rps` over `seconds`; area
/// counts uniform in [1, max_areas]; each area's shard drawn from
/// `shard_cdf`, the area then uniform among that shard's areas. Skewing
/// shards rather than areas keeps a hot shard without a handful of hot
/// areas whose own order volume would set the latency.
std::vector<Request> MakeSchedule(
    double rps, double seconds, int max_areas,
    const std::vector<double>& shard_cdf,
    const std::vector<std::vector<int>>& shard_areas, std::mt19937_64* rng) {
  std::vector<Request> out;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - Uniform01(rng)) / rps;
    if (t >= seconds) break;
    Request r;
    r.due_ns = static_cast<int64_t>(t * 1e9);
    const int k = 1 + static_cast<int>((*rng)() % static_cast<uint64_t>(max_areas));
    for (int i = 0; i < k; ++i) {
      const double u = Uniform01(rng);
      const size_t shard = std::min<size_t>(
          static_cast<size_t>(
              std::lower_bound(shard_cdf.begin(), shard_cdf.end(), u) -
              shard_cdf.begin()),
          shard_cdf.size() - 1);
      const std::vector<int>& areas = shard_areas[shard];
      r.areas.push_back(areas[(*rng)() % areas.size()]);
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Sleeps (never spins: every thread shares one CPU) until `t_ns` on the
/// NowNs clock. Oversleep shows up as generator lag.
void SleepUntil(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

}  // namespace

Outcome RunAreaQueries(const Context& ctx) {
  const Scale& sc = ctx.scale;
  const Inputs& in = *ctx.inputs;
  Outcome out;
  ServiceSpec spec;
  spec.shards = sc.query_shards;
  const std::string v1_path = ctx.work_dir + "/area_queries_v1.dsar";
  const std::string v2_path = ctx.work_dir + "/area_queries_v2.dsar";

  Deployment dep;
  std::shared_ptr<const Artifact> v2;
  for (int rep = 0; rep < sc.setup_reps; ++rep) {
    v2.reset();
    const int64_t t0 = NowNs();
    std::string err = Deploy(ctx, spec, v1_path, &dep);
    if (err.empty()) {
      // The second version: a fine-tune of the first, as a deployment's
      // next publish would be.
      FineTuner tuner(*dep.offline, sc.snapshot);
      tuner.FineTuneFrom(*dep.artifact);
      tuner.Calibrate();
      err = tuner.Pack(v2_path, "v2");
    }
    if (err.empty()) err = Artifact::Open(v2_path, &v2);
    if (!err.empty()) {
      out.tally.Record("set-up failed: " + err);
      return out;
    }
    out.setup_s.push_back(SecondsSince(t0));
  }
  for (double s : dep.fit.batch_s) out.epoch_batch_s.push_back(s);
  for (double s : dep.fit.eval_s) out.epoch_eval_s.push_back(s);
  out.flops_per_row = dep.offline->ForwardFlopsPerRow();
  Service& svc = *dep.service;
  const std::shared_ptr<const Artifact> v1 = dep.artifact;

  // Shard r (0-based) is drawn with weight 1/(r+1)^s: shard 0 runs hot.
  // The schedule depends only on the seed and the constants.
  std::mt19937_64 rng(ctx.seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<std::vector<int>> shard_areas(
      static_cast<size_t>(svc.num_shards()));
  for (int a = 0; a < in.num_areas(); ++a) {
    shard_areas[static_cast<size_t>(svc.ShardOf(a))].push_back(a);
  }
  std::vector<double> shard_cdf(shard_areas.size());
  double acc = 0;
  for (size_t r = 0; r < shard_cdf.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), sc.zipf_s);
    shard_cdf[r] = acc;
  }
  for (double& c : shard_cdf) c /= acc;
  // Phase 0 is an untimed warm-up at the nominal rate (caches, arenas,
  // the accuracy tracker's join window); phases 1.. are the ladder rungs.
  // The last phase (rate 0) is closed: each client sends its next request
  // when the previous one returns, cycling through a top-rung request mix.
  // On the overload rung the share of requests that still finish in time
  // swung with the seed (420-820 answers/s), so the closed phase, not that
  // rung, gives the rate the program sets. Rungs and the closed phase split
  // the run's seconds evenly.
  const double rung_s =
      ctx.seconds / static_cast<double>(sc.ladder_rps.size() + 1);
  std::vector<double> phase_rps = {sc.nominal_rps};
  std::vector<double> phase_s = {sc.query_warmup_s};
  for (double rps : sc.ladder_rps) {
    phase_rps.push_back(rps);
    phase_s.push_back(rung_s);
  }
  phase_rps.push_back(0);
  phase_s.push_back(rung_s);
  std::vector<std::vector<Request>> schedule;
  for (size_t p = 0; p < phase_rps.size(); ++p) {
    schedule.push_back(MakeSchedule(
        phase_rps[p] > 0 ? phase_rps[p] : sc.ladder_rps.back(), phase_s[p],
        sc.max_query_areas, shard_cdf, shard_areas, &rng));
  }

  // Background writers: ingest one minute per interval, flip versions.
  const int first_day = in.first_serve_day();
  std::atomic<uint64_t> ingest_gen{0};  // odd while a minute is ingesting
  std::atomic<int> clock_abs{first_day * 1440 + sc.warmup_minute};
  std::atomic<bool> stop{false};
  std::mutex writer_mu;  // guards writer_errors
  std::vector<std::string> writer_errors;
  std::thread ingest([&] {
    int64_t next = NowNs();
    const int last = in.num_days() * 1440 - 1;
    while (!stop.load()) {
      next += sc.ingest_interval_ms * 1'000'000;
      SleepUntil(next);
      const int m = clock_abs.load();
      if (m >= last) continue;
      ingest_gen.fetch_add(1);
      svc.Feed(m / 1440, m % 1440);
      clock_abs.store(m + 1);
      ingest_gen.fetch_add(1);
    }
  });
  std::thread swapper([&] {
    int64_t next = NowNs();
    bool to_v2 = true;
    while (!stop.load()) {
      next += sc.swap_interval_ms * 1'000'000;
      while (!stop.load() && NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop.load()) break;
      const std::string err = svc.Swap(to_v2 ? v2 : v1);
      if (!err.empty()) {
        std::lock_guard<std::mutex> lock(writer_mu);
        writer_errors.push_back("swap failed: " + err);
      }
      to_v2 = !to_v2;
    }
  });

  const int clients = std::max(
      1, std::min<int>(sc.query_clients,
                       static_cast<int>(std::thread::hardware_concurrency())));
  const int64_t deadline_ns = sc.query_deadline_us * 1000;
  const int64_t limit_ns = static_cast<int64_t>(sc.latency_limit_ms * 1e6);
  const size_t phases = schedule.size();
  std::vector<std::vector<Done>> done(phases);
  std::vector<double> abs_err_sum(phases, 0), err_n(phases, 0);
  std::vector<size_t> full_quality(phases, 0);
  std::vector<double> elapsed_s(phases, 0);  ///< Wall time each phase took.
  std::vector<Sample> samples;
  std::mutex mu;  // guards samples, out.tally, out.shard_* and the sums
  uint64_t query_id = 0;

  for (size_t phase = 0; phase < phases; ++phase) {
    const std::vector<Request>& reqs = schedule[phase];
    const bool closed = phase_rps[phase] == 0;
    if (!closed) done[phase].resize(reqs.size());
    std::atomic<size_t> next{0};
    const int64_t start = NowNs() + (closed ? 0 : 1'000'000);
    const int64_t closed_end =
        start + static_cast<int64_t>(phase_s[phase] * 1e9);
    auto client = [&] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (closed ? NowNs() >= closed_end : i >= reqs.size()) break;
        const Request& req = reqs[i % reqs.size()];
        // A closed-loop request is due when its client is free to send it.
        const int64_t due = closed ? NowNs() : start + req.due_ns;
        SleepUntil(due);
        ScopedRequest request(query_id + i + 1);
        const int64_t begin = NowNs();
        const uint64_t gen0 = ingest_gen.load();
        const int clock = clock_abs.load();
        Answer ans = svc.Predict(req.areas, due + deadline_ns);
        const int64_t end = NowNs();
        const bool clean = ans.fully_served && !ans.deadline_expired;
        Done d;
        d.lag_ns = begin - due;
        d.latency_ns = end - due;
        d.miss = !clean || d.latency_ns > limit_ns;
        if (!closed) done[phase][i] = d;

        // Verify sampled answers against their version's reference; the
        // stream must not have moved during the call for that to be defined.
        const bool stable =
            (gen0 % 2 == 0) && ingest_gen.load() == gen0 && ans.tier_none;
        const bool sampled = clean && stable && i % sc.verify_every == 0;
        if (ctx.corrupt_one_answer && phase == 0 && i == 0) {
          ans.shards.back().sequence = ans.sequence + 1;
        }
        double abs_err = 0;
        if (clean && ans.gaps.size() == req.areas.size()) {
          for (size_t k = 0; k < req.areas.size(); ++k) {
            abs_err += std::fabs(
                ans.gaps[k] - static_cast<float>(in.TrueGap(
                                  req.areas[k], clock / 1440, clock % 1440)));
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        if (phase > 0) RecordShards(ans, &out);
        if (clean) {
          abs_err_sum[phase] += abs_err;
          err_n[phase] += static_cast<double>(req.areas.size());
          if (ans.tier_none) ++full_quality[phase];
        }
        if (sampled) {
          samples.push_back({req.areas, std::move(ans), clock});
        } else {
          out.tally.Record(CheckQuery(ans, req.areas.size(), nullptr));
        }
      }
    };
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) pool.emplace_back(client);
    for (std::thread& t : pool) t.join();
    elapsed_s[phase] = SecondsSince(start);
    query_id += closed ? next.load() : reqs.size();
    // Generator lateness is judged where the clients keep up: at the nominal
    // rate. On the overload rung lag is backlog, which the rung table shows.
    if (phase > 0 && phase_rps[phase] == sc.nominal_rps) {
      for (const Done& d : done[phase]) {
        out.gen_lag_us.push_back(static_cast<double>(d.lag_ns) * 1e-3);
      }
    }
  }
  stop.store(true);
  ingest.join();
  swapper.join();
  for (const std::string& e : writer_errors) out.tally.Record(e);
  out.queue = svc.queue_totals();
  out.rejected_events = svc.rejected_events();
  out.live_versions = svc.LiveVersions();

  // Post-run oracle: replay the stream into one direct predictor per
  // version; each sampled answer must equal its pinned version's answer at
  // the same stream clock. Publishes alternate v1, v2, v1, ... from
  // sequence 1, so odd sequences are v1.
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.clock_abs < b.clock_abs;
            });
  Reference ref1(in, *dep.offline, v1);
  Reference ref2(in, *dep.offline, v2);
  int next_feed = first_day * 1440 + sc.warmup_minute - 20;
  for (const Sample& s : samples) {
    for (; next_feed < s.clock_abs; ++next_feed) {
      ref1.Feed(next_feed / 1440, next_feed % 1440);
      ref2.Feed(next_feed / 1440, next_feed % 1440);
    }
    bool tier_none = false;
    const std::vector<float> want =
        (s.answer.sequence % 2 == 1 ? ref1 : ref2).Predict(s.areas, &tier_none);
    std::string err = CheckQuery(s.answer, s.areas.size(), &want);
    if (err.empty() && !tier_none) err = "reference served degraded";
    out.tally.Record(err);
  }

  // A rung meets the limit when its tail from due time (the same tail rule
  // as every reported tail, with shed, expired and late requests counted as
  // misses) is within the limit and the last quarter's start lag shows no
  // growing backlog.
  double goodput = 0;
  std::vector<double> nominal_ms;
  double nominal_miss = 0, nominal_mae = 0;
  for (size_t p = 1; p + 1 < phases; ++p) {
    const std::vector<Done>& d = done[p];
    size_t misses = 0;
    std::vector<double> ms, judged, late_lag;
    for (size_t i = 0; i < d.size(); ++i) {
      misses += d[i].miss ? 1 : 0;
      ms.push_back(static_cast<double>(d[i].latency_ns) * 1e-6);
      judged.push_back(d[i].miss ? HUGE_VAL : ms.back());
      if (i >= d.size() * 3 / 4) {
        late_lag.push_back(static_cast<double>(d[i].lag_ns) * 1e-6);
      }
    }
    const double miss_frac = d.empty() ? 1
                                       : static_cast<double>(misses) /
                                             static_cast<double>(d.size());
    const bool backlog = Median(late_lag) > sc.latency_limit_ms;
    const Tail judged_tail = TailOf(judged);
    const bool pass =
        !d.empty() && judged_tail.value <= sc.latency_limit_ms && !backlog;
    if (pass) goodput = std::max(goodput, phase_rps[p]);
    if (phase_rps[p] == sc.nominal_rps) {
      nominal_ms = ms;
      nominal_miss = miss_frac;
      nominal_mae = err_n[p] > 0 ? abs_err_sum[p] / err_n[p] : 0;
    }
    std::printf("rung %6.0f rps: %6zu requests, p50 %8.3f ms, p%.1f %8.3f ms, "
                "miss %.4f, full-quality %7.1f/s, late-quarter lag p50 "
                "%.3f ms%s -> %s\n",
                phase_rps[p], d.size(), Median(ms), judged_tail.percentile,
                TailOf(ms).value, miss_frac,
                static_cast<double>(full_quality[p]) / elapsed_s[p],
                Median(late_lag), backlog ? " (backlog)" : "",
                pass ? "meets limit" : "misses limit");
  }
  // Useful work under overload: full-quality answers per second on the top
  // rung, which the ladder puts well above what the program sustains.
  const double overload_rate =
      static_cast<double>(full_quality[phases - 2]) / elapsed_s[phases - 2];
  const double saturation_rate =
      static_cast<double>(full_quality[phases - 1]) / elapsed_s[phases - 1];
  std::printf("closed loop, %d clients: full-quality %7.1f/s\n", clients,
              saturation_rate);
  const Tail tail = TailOf(nominal_ms);
  const double p50 = Median(nominal_ms);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu at %.0f rps",
                tail.percentile, tail.samples, sc.nominal_rps);
  out.end_to_end = {
      {"latency_ms", p50, "ms", "lower",
       "p50 from due time at the nominal rate"},
      {"throughput_per_s", saturation_rate, "1/s", "higher",
       "full-quality answers/s, closed loop"},
  };
  out.named = {
      {"query_p50_us", p50 * 1e3, "us", "lower", ""},
      {"query_tail_us", tail.value * 1e3, "us", "lower", note},
      {"query_goodput_rps", goodput, "1/s", "higher",
       "highest ladder rate whose tail meets the limit, no backlog"},
      {"query_miss_frac", nominal_miss, "ratio", "lower",
       "shed, expired or over the limit"},
      {"query_overload_rps", overload_rate, "1/s", "higher",
       "full-quality answers/s on the top rung"},
      {"query_saturation_rps", saturation_rate, "1/s", "higher",
       "full-quality answers/s, " + std::to_string(clients) +
           " closed-loop clients"},
      {"query_mae", nominal_mae, "gap", "lower", "answers at the nominal rate"},
  };
  return out;
}

}  // namespace perfbench
