// city_tick: closed loop, one caller. Each iteration is one simulated
// minute: ingest the minute's orders, traffic and weather, then PredictCity
// over every area with no deadline — the scheduler's per-minute citywide
// refresh.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

Outcome RunCityTick(const Context& ctx) {
  const Scale& sc = ctx.scale;
  const Inputs& in = *ctx.inputs;
  Outcome out;
  ServiceSpec spec;
  spec.shards = sc.tick_shards;
  const std::string path = ctx.work_dir + "/city_tick_v1.dsar";

  Deployment dep;
  for (int rep = 0; rep < sc.setup_reps; ++rep) {
    const int64_t t0 = NowNs();
    const std::string err = Deploy(ctx, spec, path, &dep);
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

  std::vector<int> all(static_cast<size_t>(in.num_areas()));
  std::iota(all.begin(), all.end(), 0);
  const int first_day = in.first_serve_day();
  const int last_minute_abs = in.num_days() * 1440 - 1;
  // Ticks whose answers the direct-predictor oracle re-checks after the
  // timed loop: fixed positions, so every run checks the same ticks. The
  // last comes about 200 timed ticks in, which a run reaches within 10 s
  // even at 50 ms a tick.
  const std::vector<int> oracle_ticks = {0, 1, 7, 31, 127, 255};
  struct Kept {
    int tick;
    Answer answer;
    std::string error;  ///< From the in-loop checks.
  };
  std::vector<Kept> kept;

  // The first warmup_ticks ticks let caches, arenas and the accuracy
  // tracker's join window fill; they are answered and checked like every
  // tick (tick_mae covers exactly them) but not timed.
  std::vector<double> tick_ms;
  std::vector<double> iter_ms;  ///< Ingest + PredictCity, per timed tick.
  double abs_err = 0;
  size_t err_n = 0;
  int64_t areas_answered = 0;
  int ticks = 0;
  int minute_abs = first_day * 1440 + sc.warmup_minute;
  // The traced run's replays are not part of the tick loop: their time is
  // taken out of the loop's, so both runs tick for the same loop time.
  int64_t loop_start = NowNs();
  int64_t replay_ns = 0;
  auto loop_s = [&] { return SecondsSince(loop_start) - replay_ns * 1e-9; };
  while ((ticks < sc.warmup_ticks || loop_s() < ctx.seconds) &&
         minute_abs < last_minute_abs) {
    if (ticks == sc.warmup_ticks) {
      loop_start = NowNs();
      replay_ns = 0;
    }
    ScopedRequest request(static_cast<uint64_t>(ticks) + 1);
    const int day = minute_abs / 1440;
    const int minute = minute_abs % 1440;
    const int64_t feed_t0 = NowNs();
    svc.Feed(day, minute);
    ++minute_abs;  // the clock now stands at the minute after the ingest
    const int64_t t0 = NowNs();
    Answer ans = svc.Predict(all, 0);
    const int64_t t1 = NowNs();
    if (ticks >= sc.warmup_ticks) {
      tick_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      iter_ms.push_back(static_cast<double>(t1 - feed_t0) * 1e-6);
      areas_answered += static_cast<int64_t>(ans.gaps.size());
      RecordShards(ans, &out);
    }

    if (ctx.corrupt_one_answer && ticks == 0 && !ans.gaps.empty()) {
      ans.gaps[0] += 1.0f;
    }
    std::string err = CheckShape(ans, all.size());
    if (err.empty() && (!ans.tier_none || !ans.fully_served)) {
      err = "healthy tick served degraded";
    }
    if (err.empty() && ctx.traced) {
      // Replay the tick through the functions PredictCity composes; the
      // answer must be the served one, bit for bit.
      const int64_t r0 = NowNs();
      uint64_t seq = 0;
      std::vector<float> replay = svc.Replay(all, &seq);
      replay_ns += NowNs() - r0;
      if (seq != ans.sequence || !SameBits(replay, ans.gaps)) {
        err = "replay through AssembleLive + Predict differs from the tick";
      }
    }
    if (ticks < sc.warmup_ticks) {
      const int day_now = minute_abs / 1440;
      const int t_now = minute_abs % 1440;
      for (size_t i = 0; i < all.size(); ++i) {
        abs_err += std::fabs(ans.gaps[i] - static_cast<float>(in.TrueGap(
                                               all[i], day_now, t_now)));
        ++err_n;
      }
    }
    // Each tick counts once: oracle ticks after the direct-predictor check.
    if (std::find(oracle_ticks.begin(), oracle_ticks.end(), ticks) !=
        oracle_ticks.end()) {
      kept.push_back({ticks, std::move(ans), err});
    } else {
      out.tally.Record(err);
    }
    ++ticks;
  }
  const double timed_s = loop_s();
  out.queue = svc.queue_totals();
  out.rejected_events = svc.rejected_events();
  out.live_versions = svc.LiveVersions();

  // Oracle, outside the timed region: a direct single-shard predictor over
  // the same artifact, fed the same stream, must give the same bits.
  Reference direct(in, *dep.offline, dep.artifact);
  int next_feed = first_day * 1440 + sc.warmup_minute - 20;
  for (const Kept& k : kept) {
    // Tick k was served after minutes up to warmup_minute + k were fed.
    const int last_fed = first_day * 1440 + sc.warmup_minute + k.tick;
    for (; next_feed <= last_fed; ++next_feed) {
      direct.Feed(next_feed / 1440, next_feed % 1440);
    }
    bool tier_none = false;
    std::vector<float> want = direct.Predict(all, &tier_none);
    out.tally.Record(!k.error.empty()
                         ? k.error
                         : CheckTick(k.answer, all.size(), want, tier_none));
  }
  if (tick_ms.empty()) out.tally.Record("no tick ran after the warm-up");

  const Tail tail = TailOf(tick_ms);
  const double p50 = Median(tick_ms);
  const double fastest =
      tick_ms.empty() ? 0 : *std::min_element(tick_ms.begin(), tick_ms.end());
  const double fastest_iter =
      iter_ms.empty() ? 0 : *std::min_element(iter_ms.begin(), iter_ms.end());
  const double areas_per_s = static_cast<double>(areas_answered) / timed_s;
  const double mae = err_n > 0 ? abs_err / static_cast<double>(err_n) : 0;
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu ticks", tail.percentile,
                tail.samples);
  char fastest_note[64];
  std::snprintf(fastest_note, sizeof(fastest_note),
                "fastest PredictCity of %zu ticks", tick_ms.size());
  // The gated figures come from the fastest tick: the host's co-tenants
  // slow a tick by up to 2x for seconds at a time, which moves the median
  // from run to run by about the whole bound, while the program's own cost
  // sets the floor (see README.md).
  out.end_to_end = {
      {"latency_ms", fastest, "ms", "lower", fastest_note},
      {"throughput_per_s",
       fastest_iter > 0 ? static_cast<double>(all.size()) * 1e3 / fastest_iter
                        : 0,
       "1/s", "higher", "areas per second of the fastest ingest + tick"},
  };
  out.named = {
      {"tick_p50_ms", p50, "ms", "lower", ""},
      {"tick_tail_ms", tail.value, "ms", "lower", note},
      {"tick_areas_per_s", areas_per_s, "1/s", "higher", ""},
      {"tick_mae", mae, "gap", "lower",
       "the " + std::to_string(sc.warmup_ticks) + " warm-up ticks"},
  };
  return out;
}

}  // namespace perfbench
