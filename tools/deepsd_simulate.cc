// deepsd_simulate: generate a synthetic car-hailing city and save it as a
// binary OrderDataset for the other tools.
//
//   deepsd_simulate --out=city.bin --areas=58 --days=52 --seed=42
//                   [--mean_scale=1.0] [--no_weather] [--no_traffic]
//                   [--metrics-out=metrics.jsonl] [--trace-out=trace.json]
//
// --metrics-out / --trace-out turn telemetry on and additionally run an
// instrumented end-to-end pass over the generated city — a short training
// run, a live-serving replay through OnlinePredictor, and one closed-loop
// dispatch evaluation — so the dumps cover every subsystem's hot path
// (trainer, predictor, order stream, feature assembly, dispatch). The
// metrics dump is JSON lines; the trace loads in chrome://tracing and
// Perfetto. See docs/observability.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <filesystem>

#include "core/drift.h"
#include "core/trainer.h"
#include "learn/continuous_learner.h"
#include "data/serialize.h"
#include "dispatch/closed_loop.h"
#include "dispatch/policies.h"
#include "eval/online_accuracy.h"
#include "obs/http_export.h"
#include "obs/metrics_io.h"
#include "obs/openmetrics.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serving/online_predictor.h"
#include "serving/serving_queue.h"
#include "serving/sharded_predictor.h"
#include "sim/city_sim.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "store/versioned_model.h"
#include "util/circuit_breaker.h"
#include "util/cli.h"
#include "util/deadline.h"
#include "util/fault_injector.h"
#include "util/rate_limiter.h"
#include "util/thread_pool.h"

namespace deepsd {
namespace {

/// How a scenario's probe model is trained: `epochs` over items every
/// `stride` minutes, evaluated on the training items or, with
/// `eval_on_serve_day`, on the paper's test items of the serve day.
struct ProbeOptions {
  int epochs = 1;
  int stride = 60;
  bool eval_on_serve_day = false;
};

/// The model a serving scenario runs against: a `kBasic` DeepSD trained on
/// the first two thirds of the city's days, its assembler, and the first
/// held-out day to serve.
struct Probe {
  /// Live requests are asked at 08:00 of the serve day.
  static constexpr int kMorning = 480;

  const data::OrderDataset* dataset = nullptr;
  int serve_day = 0;
  feature::FeatureConfig fc;
  std::unique_ptr<feature::FeatureAssembler> assembler;
  std::unique_ptr<core::AssemblerSource> train;
  core::TrainConfig tc;
  nn::ParameterStore params;
  std::unique_ptr<core::DeepSDModel> model;
  std::vector<int> all_areas;

  /// Replays the feature window before kMorning into `sink` and moves its
  /// clock to kMorning, so requests run on fresh feeds rather than
  /// staleness fallbacks.
  template <typename Sink>
  void FeedMorning(Sink& sink) const {
    sink.AdvanceTo(serve_day, kMorning - fc.window);
    for (int ts = kMorning - fc.window; ts < kMorning; ++ts) {
      data::ReplayMinute(*dataset, serve_day, ts, sink);
    }
    sink.AdvanceTo(serve_day, kMorning);
  }
};

/// Trains the probe for scenario `name` (the prefix of its progress lines).
/// Returns null, and says why, when the city has fewer than 3 days.
std::unique_ptr<Probe> TrainProbe(const data::OrderDataset& dataset,
                                  const char* name,
                                  const ProbeOptions& options = {}) {
  const int num_days = dataset.num_days();
  if (num_days < 3) {
    std::fprintf(stderr, "%s: needs >= 3 days, have %d\n", name, num_days);
    return nullptr;
  }
  const int train_days = std::max(2, num_days * 2 / 3);
  auto p = std::make_unique<Probe>();
  p->dataset = &dataset;
  p->serve_day = train_days;  // the first held-out day
  std::printf("%s: training probe model on days [0,%d)...\n", name,
              train_days);
  p->assembler = std::make_unique<feature::FeatureAssembler>(
      &dataset, p->fc, 0, train_days);
  p->train = std::make_unique<core::AssemblerSource>(
      p->assembler.get(),
      data::MakeItems(dataset, 0, train_days, 20, 1430, options.stride),
      /*advanced=*/false);
  const core::AssemblerSource test(
      p->assembler.get(),
      data::MakeTestItems(dataset, p->serve_day, p->serve_day + 1),
      /*advanced=*/false);

  core::DeepSDConfig config;
  config.num_areas = dataset.num_areas();
  config.use_weather = dataset.has_weather();
  config.use_traffic = dataset.has_traffic();
  util::Rng rng(7);
  p->model = std::make_unique<core::DeepSDModel>(
      config, core::DeepSDModel::Mode::kBasic, &p->params, &rng);
  p->tc.epochs = options.epochs;
  p->tc.best_k = 0;
  core::Trainer(p->tc).Train(p->model.get(), &p->params, *p->train,
                             options.eval_on_serve_day ? test : *p->train);

  p->all_areas.resize(static_cast<size_t>(dataset.num_areas()));
  std::iota(p->all_areas.begin(), p->all_areas.end(), 0);
  return p;
}

/// Trains a small basic-mode model on the generated city, replays one
/// serving day through the OnlinePredictor minute by minute, and runs a
/// predictive closed-loop dispatch epoch — purely to exercise the
/// instrumented paths end to end. Kept deliberately tiny: 2 epochs, a
/// coarse item stride, and a single dispatch day.
void RunInstrumentedPipeline(const data::OrderDataset& dataset,
                             const sim::CityConfig& city_config) {
  // --- Trainer spans ---
  std::unique_ptr<Probe> probe = TrainProbe(
      dataset, "telemetry",
      {.epochs = 2, .stride = 30, .eval_on_serve_day = true});
  if (probe == nullptr) return;
  const int serve_day = probe->serve_day;

  // --- Serving spans: replay the serve day like a live feed, with the
  // online accuracy tracker joining predictions against the arriving
  // ground truth and scoring input drift against the training reference.
  std::printf("telemetry: replaying day %d through OnlinePredictor...\n",
              serve_day);
  serving::OnlinePredictor predictor(probe->model.get(),
                                     probe->assembler.get());
  eval::OnlineAccuracyConfig ac;
  ac.num_areas = dataset.num_areas();
  eval::OnlineAccuracyTracker tracker(ac);
  tracker.SetInputReference(core::BuildInputReference(*probe->train));
  predictor.set_prediction_observer(&tracker);
  predictor.buffer().set_stream_observer(&tracker);
  const std::vector<int>& all_areas = probe->all_areas;
  const int t_begin = 420, t_end = 600;  // morning peak is plenty
  predictor.AdvanceTo(serve_day, t_begin - probe->fc.window);
  for (int ts = t_begin - probe->fc.window; ts < t_end; ++ts) {
    data::ReplayMinute(dataset, serve_day, ts, predictor.buffer());
    predictor.AdvanceTo(serve_day, ts + 1);
    if ((ts + 1) % 10 == 0 && ts + 1 >= t_begin) {
      predictor.PredictBatch(all_areas);
      predictor.PredictBatch({0});
    }
  }
  // Let the last open prediction slots mature, then report.
  predictor.AdvanceTo(serve_day, t_end + data::kGapWindow);
  const eval::TierAccuracy acc = tracker.Overall();
  std::printf(
      "telemetry: online accuracy over %llu joined slots: MAE %.3f RMSE %.3f "
      "ER %.3f, input PSI %.3f\n",
      static_cast<unsigned long long>(acc.count), acc.mae, acc.rmse, acc.er,
      tracker.InputPsi());
  predictor.set_prediction_observer(nullptr);
  predictor.buffer().set_stream_observer(nullptr);

  // --- Dispatch spans: one short predictive closed loop ---
  std::printf("telemetry: running closed-loop dispatch on day %d...\n",
              serve_day);
  dispatch::PredictiveGapPolicy policy(probe->model.get(),
                                       probe->assembler.get());
  dispatch::ClosedLoopConfig clc;
  clc.day_begin = serve_day;
  clc.day_end = serve_day + 1;
  clc.t_begin = t_begin;
  clc.t_end = t_end;
  clc.drivers_per_minute = 0.4 * dataset.num_areas();
  dispatch::RunClosedLoop(city_config, &policy, clc);
}

/// Closed-loop overload spike against a ServingQueue-fronted predictor:
/// calibrate the per-request service time, then offer load in three phases
/// — a ramp (1x..5x the sustainable rate), a burst (`burst_mult`x), and a
/// sustained 2x tail — with per-request deadlines a few service times
/// long. Verifies the overload invariants the robustness docs promise:
/// admitted + shed == offered, every accepted request resolves (zero
/// losses), and Drain() closes admission without abandoning work. Returns
/// false (and prints why) when any invariant breaks.
bool RunOverloadScenario(const data::OrderDataset& dataset, double burst_mult,
                         int requests_per_phase,
                         obs::TimelineRecorder* recorder) {
  std::unique_ptr<Probe> probe = TrainProbe(dataset, "overload");
  if (probe == nullptr) return false;
  const std::vector<int>& all_areas = probe->all_areas;

  // Feed the live buffer a healthy morning window so admission decisions,
  // not staleness fallbacks, are what the scenario exercises.
  serving::OnlinePredictor predictor(probe->model.get(),
                                     probe->assembler.get());
  probe->FeedMorning(predictor.buffer());

  // Calibrate: a few unhurried requests establish the service-time EWMA
  // the deadline-feasibility shed relies on.
  int64_t calib_start = util::NowSteadyUs();
  for (int i = 0; i < 4; ++i) {
    predictor.PredictBatch(all_areas, util::Deadline::Infinite());
  }
  const double service_us = std::max(
      static_cast<double>(util::NowSteadyUs() - calib_start) / 4.0, 100.0);
  std::printf("overload: calibrated service time %.0f us/request\n",
              service_us);

  // The guard rails: a rate limiter at ~3x the sustainable rate (so the
  // ramp passes but the burst trips it) and a breaker that opens after a
  // run of deadline misses and recovers quickly enough to probe within
  // the scenario.
  util::RateLimiter limiter(3.0 * 1e6 / service_us, /*burst=*/8.0);
  util::CircuitBreaker::Config bc;
  bc.failure_threshold = 8;
  bc.open_duration_us = static_cast<int64_t>(service_us * 4);
  bc.name = "overload_breaker";
  util::CircuitBreaker breaker(bc);

  serving::ServingQueueConfig qc;
  qc.capacity = 16;
  qc.num_workers = 1;
  qc.default_deadline_us = static_cast<int64_t>(service_us * 4);
  qc.rate_limiter = &limiter;
  qc.breaker = &breaker;
  qc.watchdog_stuck_us = 10'000'000;
  serving::ServingQueue queue(&predictor, qc);

  struct Phase {
    const char* name;
    double mult;
  };
  const Phase phases[] = {{"ramp_1x", 1.0},
                          {"ramp_2x", 2.0},
                          {"ramp_5x", 5.0},
                          {"burst", burst_mult},
                          {"sustained_2x", 2.0}};
  std::vector<std::future<serving::ServingResponse>> futures;
  futures.reserve(static_cast<size_t>(requests_per_phase) * 5);
  // Baseline scrape before load so the phase deltas stand out.
  if (recorder != nullptr) recorder->SampleNow();
  for (const Phase& phase : phases) {
    // Below ~50us the sleep's own scheduling latency throttles the offered
    // load; a genuinely overloading phase just submits back to back.
    const int64_t inter_us =
        static_cast<int64_t>(service_us / phase.mult);
    const serving::ServingQueueStats before = queue.stats();
    for (int i = 0; i < requests_per_phase; ++i) {
      futures.push_back(queue.Submit(all_areas));
      if (inter_us >= 50) {
        std::this_thread::sleep_for(std::chrono::microseconds(inter_us));
      }
    }
    const serving::ServingQueueStats after = queue.stats();
    // One deterministic timeline sample per phase: the burst phase shows
    // up as a shed-rate spike in exactly one scrape interval, and the SLO
    // monitor (if attached to the recorder) sees each phase once.
    if (recorder != nullptr) recorder->SampleNow();
    std::printf(
        "overload: phase %-12s offered %3llu admitted %3llu shed %3llu "
        "(full %llu deadline %llu rate %llu breaker %llu)\n",
        phase.name,
        static_cast<unsigned long long>(after.offered - before.offered),
        static_cast<unsigned long long>(after.admitted - before.admitted),
        static_cast<unsigned long long>(after.shed_total() -
                                        before.shed_total()),
        static_cast<unsigned long long>(after.shed_queue_full -
                                        before.shed_queue_full),
        static_cast<unsigned long long>(after.shed_deadline -
                                        before.shed_deadline),
        static_cast<unsigned long long>(after.shed_rate_limited -
                                        before.shed_rate_limited),
        static_cast<unsigned long long>(after.shed_breaker -
                                        before.shed_breaker));
  }

  // Every future must resolve — shed ones immediately, admitted ones once
  // served. A hung future is a lost request, the one failure mode the
  // queue exists to rule out.
  size_t lost = 0, resolved_admitted = 0, misses = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ++lost;
      continue;
    }
    serving::ServingResponse r = f.get();
    if (r.admitted()) {
      ++resolved_admitted;
      if (r.deadline_missed) ++misses;
    }
  }

  queue.Drain();
  // Admission must stay closed after a drain.
  serving::ServingResponse post_drain =
      queue.Submit(all_areas, util::Deadline::Infinite()).get();

  const serving::ServingQueueStats s = queue.stats();
  std::printf(
      "overload: total offered %llu admitted %llu shed %llu "
      "deadline_miss %llu breaker_opened %llu\n",
      static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.shed_total()),
      static_cast<unsigned long long>(s.deadline_misses),
      static_cast<unsigned long long>(breaker.times_opened()));

  bool ok = true;
  if (lost != 0) {
    std::fprintf(stderr, "overload FAIL: %zu request(s) never resolved\n",
                 lost);
    ok = false;
  }
  if (s.offered != s.admitted + s.shed_total()) {
    std::fprintf(stderr,
                 "overload FAIL: offered %llu != admitted %llu + shed %llu "
                 "(silent drop)\n",
                 static_cast<unsigned long long>(s.offered),
                 static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.shed_total()));
    ok = false;
  }
  if (resolved_admitted != s.completed || s.completed != s.admitted) {
    std::fprintf(stderr,
                 "overload FAIL: admitted %llu completed %llu resolved %zu\n",
                 static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.completed),
                 resolved_admitted);
    ok = false;
  }
  if (s.admitted == 0) {
    std::fprintf(stderr, "overload FAIL: everything was shed\n");
    ok = false;
  }
  if (post_drain.verdict != serving::AdmitVerdict::kShedDraining) {
    std::fprintf(stderr,
                 "overload FAIL: post-drain submit was not shed as draining "
                 "(got %s)\n",
                 serving::ServingQueue::VerdictName(post_drain.verdict));
    ok = false;
  }
  if (ok) std::printf("overload scenario OK (%zu misses of admitted)\n",
                      misses);
  return ok;
}

/// Sharded serving smoke at city scale (docs/sharding.md): trains a probe
/// model on the generated city, replays identical fresh feeds into a
/// direct OnlinePredictor and ShardedPredictors at 1 and `shards` shards,
/// and checks the invariants the sharded design promises — PredictCity()
/// bitwise identical to the direct path at every shard count under an
/// infinite deadline, the ring placing every area with every shard owning
/// some, and admitted + shed == offered per shard and merged. This is the
/// CI gate behind `deepsd_simulate --shards 4 --areas 1000`; returns false
/// (and prints why) when any invariant breaks.
bool RunShardedScenario(const data::OrderDataset& dataset, int shards) {
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1, got %d\n", shards);
    return false;
  }
  std::unique_ptr<Probe> probe = TrainProbe(dataset, "sharded");
  if (probe == nullptr) return false;
  const std::vector<int>& all_areas = probe->all_areas;

  // Identical fresh feeds into the direct predictor and each sharded
  // configuration: the equivalence check below compares like with like.
  serving::OnlinePredictor direct(probe->model.get(), probe->assembler.get());
  probe->FeedMorning(direct.buffer());
  const std::vector<float> want = direct.PredictBatch(all_areas).gaps;

  store::VersionedModel versions(
      std::make_shared<store::BorrowedVersion>(probe->model.get()));
  bool ok = true;
  for (int n : {1, shards}) {
    if (n == 1 && shards == 1) continue;  // don't run 1-shard twice
    serving::ShardedPredictorConfig sc;
    sc.ring.num_shards = n;
    sc.queue.num_workers = 1;
    sc.queue.capacity = 64;
    sc.queue.watchdog_stuck_us = 0;
    serving::ShardedPredictor sharded(&versions, probe->assembler.get(), sc);
    probe->FeedMorning(sharded);

    const std::vector<int> loads =
        sharded.ring().LoadHistogram(dataset.num_areas());
    const int max_load = *std::max_element(loads.begin(), loads.end());
    const int min_load = *std::min_element(loads.begin(), loads.end());
    if (min_load == 0) {
      std::fprintf(stderr, "sharded FAIL: an idle shard at %d shards x %d "
                   "areas — the ring is unbalanced\n",
                   n, dataset.num_areas());
      ok = false;
    }

    serving::CityPredictResult city =
        sharded.PredictCity(all_areas, util::Deadline::Infinite());
    size_t mismatches = 0;
    if (city.gaps.size() != want.size()) {
      mismatches = want.size();
    } else {
      for (size_t i = 0; i < want.size(); ++i) {
        if (city.gaps[i] != want[i]) ++mismatches;
      }
    }
    if (mismatches != 0 || city.tier != serving::FallbackTier::kNone ||
        !city.fully_served || city.deadline_expired) {
      std::fprintf(stderr,
                   "sharded FAIL: %d-shard PredictCity diverged from the "
                   "direct path (%zu mismatching area(s), tier %d) — the "
                   "equivalence contract is broken\n",
                   n, mismatches, static_cast<int>(city.tier));
      ok = false;
    }

    sharded.Drain();
    serving::ShardedStats stats = sharded.stats();
    uint64_t offered = 0, admitted = 0, shed = 0;
    for (size_t s = 0; s < stats.per_shard.size(); ++s) {
      const serving::ServingQueueStats& q = stats.per_shard[s];
      if (q.offered != q.admitted + q.shed_total() ||
          q.completed != q.admitted) {
        std::fprintf(stderr,
                     "sharded FAIL: shard %zu accounting broke (offered "
                     "%llu admitted %llu shed %llu completed %llu)\n",
                     s, static_cast<unsigned long long>(q.offered),
                     static_cast<unsigned long long>(q.admitted),
                     static_cast<unsigned long long>(q.shed_total()),
                     static_cast<unsigned long long>(q.completed));
        ok = false;
      }
      offered += q.offered;
      admitted += q.admitted;
      shed += q.shed_total();
    }
    const serving::ServingQueueStats merged = stats.merged();
    if (merged.offered != offered || merged.admitted != admitted ||
        merged.offered != merged.admitted + merged.shed_total()) {
      std::fprintf(stderr, "sharded FAIL: merged accounting broke\n");
      ok = false;
    }
    std::printf(
        "sharded: %d shard(s), ring %d..%d areas/shard, offered %llu "
        "admitted %llu shed %llu — %s\n",
        n, min_load, max_load, static_cast<unsigned long long>(offered),
        static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(shed),
        ok ? "invariants hold" : "INVARIANT BREACH");
  }
  if (ok) {
    std::printf("sharded scenario OK: %d-shard PredictCity bitwise equal "
                "to the direct path over %d areas\n",
                shards, dataset.num_areas());
  }
  return ok;
}

/// Swap-under-load harness (docs/model_store.md): trains a probe model,
/// packs it into two bitwise-distinct DSAR1 artifacts (v1, and v2 after
/// one further training epoch), serves a `shards`-shard city over one
/// store::VersionedModel shared by every replica, and publishes the two
/// versions alternately `publishes` times while `readers` threads keep
/// PredictCity under sustained load. Returns false (and prints why) on:
///
///   * a dropped or failed request — any city answer that is not fully
///     served at tier kNone with every area populated;
///   * a non-finite prediction;
///   * a version-torn output — shards of one call reporting mixed publish
///     sequences, or the answer's bytes not matching, bitwise, the single
///     version its pinned sequence names;
///   * a publish that takes kPublishStallUs or longer.
///
/// This is the CI gate behind `deepsd_simulate --shards 4 --swap`; on
/// failure the caller dumps the flight-recorder bundle.
constexpr int64_t kPublishStallUs = 200'000;  // a pause, not a stall

bool RunSwapScenario(const data::OrderDataset& dataset, int shards,
                     int publishes, int readers,
                     const std::string& scratch) {
  if (shards < 1 || publishes < 1 || readers < 1) {
    std::fprintf(stderr,
                 "--swap needs positive --shards/--swap_publishes/"
                 "--swap_readers\n");
    return false;
  }
  std::unique_ptr<Probe> probe = TrainProbe(dataset, "swap");
  if (probe == nullptr) return false;
  const std::vector<int>& all_areas = probe->all_areas;

  // Two bitwise-distinct versions: v1 as trained, v2 after one further
  // epoch — the realistic "freshly fine-tuned model replaces the serving
  // one" swap the store exists for.
  const std::string v1_path = scratch + ".swap_v1.dsar";
  const std::string v2_path = scratch + ".swap_v2.dsar";
  store::PackOptions po;
  po.version_id = "swap-v1";
  util::Status st = store::PackModelArtifact(*probe->model, probe->params,
                                             nullptr, po, v1_path);
  if (!st.ok()) {
    std::fprintf(stderr, "swap: pack v1 failed: %s\n", st.ToString().c_str());
    return false;
  }
  core::Trainer(probe->tc).Train(probe->model.get(), &probe->params,
                                 *probe->train, *probe->train);
  po.version_id = "swap-v2";
  st = store::PackModelArtifact(*probe->model, probe->params, nullptr, po,
                                v2_path);
  if (!st.ok()) {
    std::fprintf(stderr, "swap: pack v2 failed: %s\n", st.ToString().c_str());
    return false;
  }

  std::shared_ptr<const store::StoredModel> v1, v2;
  st = store::StoredModel::Open(v1_path, &v1);
  if (st.ok()) st = store::StoredModel::Open(v2_path, &v2);
  if (!st.ok()) {
    std::fprintf(stderr, "swap: open failed: %s\n", st.ToString().c_str());
    return false;
  }

  bool ok = true;
  {
    store::VersionedModel versions;
    st = versions.Publish(v1);  // sequence 1
    if (!st.ok()) {
      std::fprintf(stderr, "swap: publish v1 failed: %s\n",
                   st.ToString().c_str());
      return false;
    }

    serving::ShardedPredictorConfig sc;
    sc.ring.num_shards = shards;
    sc.queue.num_workers = 1;
    sc.queue.capacity = 64;
    sc.queue.watchdog_stuck_us = 0;
    serving::ShardedPredictor sharded(&versions, probe->assembler.get(), sc);

    // A healthy morning window into every shard so the run exercises the
    // swap path, not staleness fallbacks.
    probe->FeedMorning(sharded);

    // Reference answers per version. Publishes alternate v1/v2 from
    // sequence 1 on, so an odd pinned sequence must serve exactly want_v1
    // and an even one exactly want_v2 — any other bytes are a torn read.
    serving::CityPredictResult ref1 =
        sharded.PredictCity(all_areas, util::Deadline::Infinite());
    st = versions.Publish(v2);  // sequence 2
    if (!st.ok()) {
      std::fprintf(stderr, "swap: publish v2 failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    serving::CityPredictResult ref2 =
        sharded.PredictCity(all_areas, util::Deadline::Infinite());
    if (ref1.model_sequence != 1 || ref2.model_sequence != 2 ||
        !ref1.fully_served || !ref2.fully_served) {
      std::fprintf(stderr, "swap FAIL: reference answers were not served "
                   "cleanly from sequences 1 and 2\n");
      return false;
    }
    const std::vector<float> want_v1 = ref1.gaps;
    const std::vector<float> want_v2 = ref2.gaps;
    size_t distinct = 0;
    for (size_t i = 0; i < want_v1.size(); ++i) {
      if (want_v1[i] != want_v2[i]) ++distinct;
    }
    if (distinct == 0) {
      std::fprintf(stderr, "swap FAIL: v1 and v2 predict identically — the "
                   "torn-read detector would be blind\n");
      return false;
    }
    std::printf("swap: versions differ on %zu/%zu areas; running %d "
                "publishes under %d reader thread(s) x %d shard(s)...\n",
                distinct, want_v1.size(), publishes, readers, shards);

    std::atomic<uint64_t> requests{0}, failed{0}, non_finite{0}, torn{0};
    std::atomic<uint64_t> seen_v1{0}, seen_v2{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&]() {
        while (!stop.load(std::memory_order_acquire)) {
          serving::CityPredictResult city =
              sharded.PredictCity(all_areas, util::Deadline::Infinite());
          requests.fetch_add(1, std::memory_order_relaxed);
          if (!city.fully_served || city.deadline_expired ||
              city.tier != serving::FallbackTier::kNone ||
              city.gaps.size() != all_areas.size()) {
            failed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          bool finite = true;
          for (float g : city.gaps) {
            if (!std::isfinite(g)) finite = false;
          }
          if (!finite) non_finite.fetch_add(1, std::memory_order_relaxed);
          bool mixed = false;
          for (const serving::ShardOutcome& s : city.shards) {
            if (s.model_sequence != city.model_sequence) mixed = true;
          }
          const std::vector<float>& want =
              (city.model_sequence % 2 == 1) ? want_v1 : want_v2;
          (city.model_sequence % 2 == 1 ? seen_v1 : seen_v2)
              .fetch_add(1, std::memory_order_relaxed);
          if (mixed ||
              std::memcmp(city.gaps.data(), want.data(),
                          want.size() * sizeof(float)) != 0) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // The publish loop: alternate versions with a breather between flips
    // so readers land on both sides of every swap. Each publish is timed:
    // readers pin versions throughout, and a flip must stay a pause, not
    // a stall.
    std::vector<int64_t> publish_us;
    publish_us.reserve(static_cast<size_t>(publishes));
    for (int i = 0; i < publishes && ok; ++i) {
      const int64_t t0 = util::NowSteadyUs();
      st = versions.Publish(i % 2 == 0 ? v1 : v2);
      publish_us.push_back(util::NowSteadyUs() - t0);
      if (!st.ok()) {
        std::fprintf(stderr, "swap FAIL: publish %d failed: %s\n", i,
                     st.ToString().c_str());
        ok = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    sharded.Drain();
    versions.TryReclaim();

    const store::VersionedModel::Stats vs = versions.stats();
    const serving::ServingQueueStats merged = sharded.stats().merged();
    std::sort(publish_us.begin(), publish_us.end());
    const int64_t publish_p50 = publish_us[publish_us.size() / 2];
    const int64_t publish_max = publish_us.back();
    std::printf(
        "swap: %llu requests (%llu on v1-odd, %llu on v2-even), %llu "
        "failed, %llu non-finite, %llu torn; %llu published (p50 %lld us, "
        "max %lld us), %llu reclaimed, %llu retired live, %llu slot "
        "overflow(s)\n",
        static_cast<unsigned long long>(requests.load()),
        static_cast<unsigned long long>(seen_v1.load()),
        static_cast<unsigned long long>(seen_v2.load()),
        static_cast<unsigned long long>(failed.load()),
        static_cast<unsigned long long>(non_finite.load()),
        static_cast<unsigned long long>(torn.load()),
        static_cast<unsigned long long>(vs.published),
        static_cast<long long>(publish_p50),
        static_cast<long long>(publish_max),
        static_cast<unsigned long long>(vs.reclaimed),
        static_cast<unsigned long long>(vs.retired_live),
        static_cast<unsigned long long>(vs.slot_overflows));

    if (requests.load() == 0 || seen_v1.load() == 0 || seen_v2.load() == 0) {
      std::fprintf(stderr, "swap FAIL: the load never observed both "
                   "versions — the harness proved nothing\n");
      ok = false;
    }
    if (failed.load() != 0) {
      std::fprintf(stderr, "swap FAIL: %llu request(s) dropped or degraded "
                   "during hot swaps\n",
                   static_cast<unsigned long long>(failed.load()));
      ok = false;
    }
    if (non_finite.load() != 0) {
      std::fprintf(stderr, "swap FAIL: non-finite predictions served\n");
      ok = false;
    }
    if (torn.load() != 0) {
      std::fprintf(stderr, "swap FAIL: %llu version-torn answer(s) — a "
                   "request mixed old and new model state\n",
                   static_cast<unsigned long long>(torn.load()));
      ok = false;
    }
    if (merged.offered != merged.admitted + merged.shed_total() ||
        merged.shed_total() != 0) {
      std::fprintf(stderr,
                   "swap FAIL: shard accounting broke under swaps (offered "
                   "%llu admitted %llu shed %llu)\n",
                   static_cast<unsigned long long>(merged.offered),
                   static_cast<unsigned long long>(merged.admitted),
                   static_cast<unsigned long long>(merged.shed_total()));
      ok = false;
    }
    if (publish_max >= kPublishStallUs) {
      std::fprintf(stderr, "swap FAIL: a publish took %lld us (bound %lld "
                   "us) — a swap stalled serving\n",
                   static_cast<long long>(publish_max),
                   static_cast<long long>(kPublishStallUs));
      ok = false;
    }
    if (vs.retired_live != 0) {
      std::fprintf(stderr, "swap FAIL: %llu retired version(s) still live "
                   "after all readers released — reclamation leaked\n",
                   static_cast<unsigned long long>(vs.retired_live));
      ok = false;
    }
  }
  if (ok) {
    std::printf("swap scenario OK: zero drops and zero torn reads across "
                "%d hot swaps\n", publishes);
  }
  return ok;
}

/// Continuous-learning drift gate (docs/continuous_learning.md): simulates
/// the same city with an archetype shift over its last two days, trains and
/// packs a pre-shift model, then replays the shifted days through a full
/// ContinuousLearner deployment — versioned serving, live accuracy tracker,
/// durable ledger under `scratch`.drift_state — beside a frozen replica
/// that never fine-tunes. One fine-tune is requested after the first
/// drifted day. Returns false (and prints why) unless:
///
///   * exactly one candidate is promoted and none rolled back or rejected
///     (the gate holds on healthy adaptation);
///   * the ledger's committed version is the promoted candidate;
///   * the promoted model's post-promotion MAE beats the frozen replica's
///     over the same joined prediction slots (the recovery gate).
///
/// This is the CI gate behind `deepsd_simulate --drift`; the ledger it
/// leaves behind feeds `deepsd_metrics_report --promotions`.
bool RunDriftScenario(const sim::CityConfig& base_config,
                      const std::string& scratch, obs::AlertLog* alert_log,
                      obs::FlightRecorder* flight) {
  sim::CityConfig config = base_config;
  if (config.num_days < 6) {
    std::fprintf(stderr, "drift: raising --days from %d to 6 (2 shifted "
                 "days need 4 clean ones before them)\n", config.num_days);
    config.num_days = 6;
  }
  const int shift_day = config.num_days - 2;
  sim::RegimeShift shift;
  shift.kind = sim::RegimeShift::Kind::kArchetypeShift;
  shift.start_day = shift_day;
  shift.area_stride = 1;  // every area shifts: an unmistakable regime change
  shift.intensity = 1.5;
  config.regime_shifts.push_back(shift);

  std::printf("drift: simulating %d areas x %d days, archetype shift from "
              "day %d...\n",
              config.num_areas, config.num_days, shift_day);
  data::OrderDataset dataset = sim::SimulateCity(config, nullptr);
  const int num_areas = dataset.num_areas();

  std::printf("drift: training pre-shift model on days [0,%d)...\n",
              shift_day);
  feature::FeatureConfig fc;
  feature::FeatureAssembler assembler(&dataset, fc, 0, shift_day);
  auto train_items = data::MakeItems(dataset, 0, shift_day, 20, 1430, 30);
  core::DeepSDConfig mc;
  mc.num_areas = num_areas;
  mc.use_weather = dataset.has_weather();
  mc.use_traffic = dataset.has_traffic();
  nn::ParameterStore params;
  util::Rng rng(7);
  core::DeepSDModel model(mc, core::DeepSDModel::Mode::kBasic, &params, &rng);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.best_k = 0;
  core::AssemblerSource train(&assembler, train_items, /*advanced=*/false);
  core::Trainer(tc).Train(&model, &params, train, train);

  const std::string state_dir = scratch + ".drift_state";
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  std::filesystem::create_directories(state_dir, ec);
  if (ec) {
    std::fprintf(stderr, "drift: cannot create %s: %s\n", state_dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  const std::string init_path = state_dir + "/init.dsar";
  store::PackOptions po;
  po.version_id = "init";
  util::Status st = store::PackModelArtifact(model, params, nullptr, po,
                                             init_path);
  if (!st.ok()) {
    std::fprintf(stderr, "drift: pack failed: %s\n", st.ToString().c_str());
    return false;
  }

  // The deployment: versioned serving fed by the learner's publish /
  // rollback hooks, a live accuracy tracker the learner drives, and the
  // durable ledger under state_dir.
  eval::OnlineAccuracyConfig ac;
  ac.num_areas = num_areas;
  eval::OnlineAccuracyTracker tracker(ac);

  learn::LearnerOptions lo;
  lo.state_dir = state_dir;
  lo.initial_artifact = init_path;
  lo.num_areas = num_areas;
  lo.first_weekday = config.first_weekday;
  lo.finetune = tc;
  lo.finetune.epochs = 4;
  lo.features = fc;
  lo.snapshot_days = 1;
  lo.min_train_days = 1;
  lo.item_stride = 10;
  // Only the explicit request below starts a fine-tune: the cooldown is
  // effectively infinite and the PSI trigger unreachable (no input
  // reference is attached, so live PSI stays 0).
  lo.cooldown_minutes = 1 << 20;
  lo.psi_trigger = 1e9;
  // Judge the candidate late in the day, once its shadow buffer has long
  // since warmed past the feature window.
  lo.shadow_min_samples = static_cast<uint64_t>(num_areas) * 100;
  lo.watch_min_samples = 64;
  store::VersionedModel versions;
  learn::ContinuousLearner learner(
      lo, &assembler, &tracker,
      [&](std::shared_ptr<const store::ModelVersion> v) {
        return versions.Publish(std::move(v));
      });
  if (alert_log != nullptr) learner.set_alert_log(alert_log);
  if (flight != nullptr) learner.set_flight_recorder(flight);

  std::shared_ptr<const store::StoredModel> boot;
  st = learner.Recover(&boot);
  if (st.ok()) st = versions.Publish(boot);
  if (!st.ok()) {
    std::fprintf(stderr, "drift: boot failed: %s\n", st.ToString().c_str());
    return false;
  }
  serving::OnlinePredictor predictor(&versions, &assembler);
  predictor.set_prediction_observer(&learner);

  // The frozen replica: the same pre-shift version, never fine-tuned,
  // scored by its own (unpublished) tracker over the same slots.
  store::VersionedModel frozen_versions(boot);
  serving::OnlinePredictor frozen(&frozen_versions, &assembler);
  eval::OnlineAccuracyConfig frozen_ac = ac;
  frozen_ac.publish_metrics = false;
  eval::OnlineAccuracyTracker frozen_tracker(frozen_ac);
  frozen.set_prediction_observer(&frozen_tracker);
  frozen.buffer().set_stream_observer(&frozen_tracker);

  std::vector<int> all_areas(static_cast<size_t>(num_areas));
  for (int a = 0; a < num_areas; ++a) all_areas[static_cast<size_t>(a)] = a;

  std::printf("drift: replaying days [%d,%d) through the learner...\n",
              shift_day - 1, config.num_days);
  // Every event goes to the learner, then the promoted side, then the
  // frozen replica.
  struct FanOut {
    learn::ContinuousLearner& learner;
    serving::OrderStreamBuffer& serving;
    serving::OrderStreamBuffer& frozen;
    void AddOrder(const data::Order& o) {
      learner.OnOrder(o);
      serving.AddOrder(o);
      frozen.AddOrder(o);
    }
    void AddTraffic(const data::TrafficRecord& tr) {
      learner.OnTraffic(tr);
      serving.AddTraffic(tr);
      frozen.AddTraffic(tr);
    }
    void AddWeather(const data::WeatherRecord& w) {
      learner.OnWeather(w);
      serving.AddWeather(w);
      frozen.AddWeather(w);
    }
  } feed{learner, predictor.buffer(), frozen.buffer()};
  bool frozen_marked = false;
  for (int day = shift_day - 1; day < config.num_days; ++day) {
    for (int ts = 0; ts < data::kMinutesPerDay; ++ts) {
      if (day == shift_day + 1 && ts == 0) learner.RequestFineTune();
      st = learner.Tick(day, ts);
      if (!st.ok()) {
        std::fprintf(stderr, "drift: Tick(%d,%d) failed: %s\n", day, ts,
                     st.ToString().c_str());
        return false;
      }
      data::ReplayMinute(dataset, day, ts, feed);
      predictor.AdvanceTo(day, ts + 1);
      frozen.AdvanceTo(day, ts + 1);
      if (day >= shift_day && (ts + 1) % 5 == 0 && ts + 1 >= fc.window) {
        predictor.PredictBatch(all_areas, util::Deadline::Infinite());
        frozen.PredictBatch(all_areas, util::Deadline::Infinite());
        // Score the frozen replica over exactly the promoted model's
        // post-promotion slots (the learner Mark()s its own tracker).
        if (!frozen_marked && learner.promotions() == 1) {
          frozen_tracker.Mark();
          frozen_marked = true;
        }
      }
    }
  }

  const std::string ledger_path = state_dir + "/promotions.ledger";
  std::printf(
      "drift: %llu fine-tune(s), %llu promotion(s), %llu rejection(s), "
      "%llu rollback(s); ledger at %s\n",
      static_cast<unsigned long long>(learner.fine_tunes()),
      static_cast<unsigned long long>(learner.promotions()),
      static_cast<unsigned long long>(learner.rejected()),
      static_cast<unsigned long long>(learner.rollbacks()),
      ledger_path.c_str());

  bool ok = true;
  if (learner.promotions() != 1 || learner.rollbacks() != 0 ||
      learner.rejected() != 0) {
    std::fprintf(stderr,
                 "drift FAIL: expected exactly one clean promotion, got "
                 "%llu promoted / %llu rejected / %llu rolled back\n",
                 static_cast<unsigned long long>(learner.promotions()),
                 static_cast<unsigned long long>(learner.rejected()),
                 static_cast<unsigned long long>(learner.rollbacks()));
    ok = false;
  }
  const learn::LedgerState ledger_state = learner.ledger().state();
  if (ok && (ledger_state.committed_version != learner.serving_model()->version_id() ||
             ledger_state.in_flight)) {
    std::fprintf(stderr,
                 "drift FAIL: ledger committed '%s' (in flight: %d) but "
                 "serving answers from '%s'\n",
                 ledger_state.committed_version.c_str(),
                 ledger_state.in_flight,
                 learner.serving_model()->version_id().c_str());
    ok = false;
  }
  if (ok) {
    const eval::TierAccuracy adapted = tracker.SinceMark();
    const eval::TierAccuracy stale = frozen_tracker.SinceMark();
    std::printf(
        "drift: post-promotion MAE %.3f over %llu slots (frozen replica "
        "%.3f over %llu)\n",
        adapted.mae, static_cast<unsigned long long>(adapted.count),
        stale.mae, static_cast<unsigned long long>(stale.count));
    if (adapted.count < lo.watch_min_samples || stale.count == 0) {
      std::fprintf(stderr, "drift FAIL: too few post-promotion slots to "
                   "judge recovery\n");
      ok = false;
    } else if (adapted.mae >= stale.mae) {
      std::fprintf(stderr,
                   "drift FAIL: the promoted model (MAE %.3f) did not beat "
                   "the frozen pre-shift model (MAE %.3f) on drifted "
                   "traffic\n",
                   adapted.mae, stale.mae);
      ok = false;
    }
  }
  predictor.set_prediction_observer(nullptr);
  frozen.set_prediction_observer(nullptr);
  frozen.buffer().set_stream_observer(nullptr);
  if (ok) {
    std::printf("drift scenario OK: one guarded promotion recovered "
                "accuracy after the regime shift\n");
  }
  return ok;
}

int Main(int argc, char** argv) {
  util::CommandLine cli(argc, argv);
  util::Status st = cli.CheckKnown(
      {"out", "areas", "days", "seed", "mean_scale", "no_weather", "shards",
       "no_traffic", "first_weekday", "threads", "faults", "metrics-out",
       "trace-out", "overload", "overload_burst", "overload_requests",
       "timeline-out", "timeline-interval-ms", "openmetrics-out",
       "serve-metrics", "alerts-out", "flight-dir", "slo", "slo_availability",
       "slo_queue_p99_us", "slo_mae", "swap", "swap_publishes",
       "swap_readers", "drift", "help"});
  if (!st.ok() || cli.GetBool("help", false)) {
    std::fprintf(stderr,
                 "%s\nusage: deepsd_simulate --out=city.bin [--areas=58] "
                 "[--days=52] [--seed=42] [--mean_scale=1.0] [--no_weather] "
                 "[--no_traffic] [--first_weekday=1] [--threads=N] "
                 "[--faults=drop_event=0.1,seed=42] "
                 "[--metrics-out=metrics.jsonl] [--trace-out=trace.json] "
                 "[--timeline-out=timeline.jsonl] [--timeline-interval-ms=200] "
                 "[--openmetrics-out=metrics.txt] [--serve-metrics=PORT] "
                 "[--slo] [--slo_availability=0.99] [--slo_queue_p99_us=0] "
                 "[--slo_mae=0] [--alerts-out=alerts.jsonl] "
                 "[--flight-dir=DIR] [--overload] [--overload_burst=10] "
                 "[--overload_requests=40] [--shards=N] [--swap] "
                 "[--swap_publishes=120] [--swap_readers=4] [--drift]\n",
                 st.ToString().c_str());
    return st.ok() ? 0 : 2;
  }

  const bool want_timeline = cli.Has("timeline-out") ||
                             cli.Has("openmetrics-out") ||
                             cli.Has("serve-metrics") || cli.GetBool("slo",
                                                                     false);
  const bool telemetry =
      cli.Has("metrics-out") || cli.Has("trace-out") || want_timeline;
  if (telemetry) obs::SetEnabled(true);

  // Fault injection for the instrumented pipeline's serving replay (same
  // spec grammar as DEEPSD_FAULTS; see docs/robustness.md). The simulated
  // city itself is always generated clean — faults hit the feeds, not the
  // generator.
  if (cli.Has("faults")) {
    st = util::FaultInjector::Global().ConfigureFromSpec(
        cli.GetString("faults"));
    if (!st.ok()) {
      std::fprintf(stderr, "bad --faults spec: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  // Thread count for the instrumented pipeline (0 = hardware concurrency);
  // simulation output is bit-identical regardless.
  st = util::ThreadPool::SetGlobalThreads(
      static_cast<int>(cli.GetInt("threads", 0)));
  if (!st.ok()) {
    std::fprintf(stderr, "--threads: %s\n", st.ToString().c_str());
    return 1;
  }

  std::string out = cli.GetString("out", "city.bin");
  sim::CityConfig config;
  config.num_areas = static_cast<int>(cli.GetInt("areas", 58));
  config.num_days = static_cast<int>(cli.GetInt("days", 52));
  config.seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  config.mean_scale = cli.GetDouble("mean_scale", 1.0);
  config.generate_weather = !cli.GetBool("no_weather", false);
  config.generate_traffic = !cli.GetBool("no_traffic", false);
  config.first_weekday = static_cast<int>(cli.GetInt("first_weekday", 1));

  std::printf("simulating %d areas x %d days (seed %llu)...\n",
              config.num_areas, config.num_days,
              static_cast<unsigned long long>(config.seed));
  sim::SimSummary summary;
  data::OrderDataset dataset = sim::SimulateCity(config, &summary);
  std::printf(
      "generated %zu orders (%.1f%% unmet), %.1f%% of busy-hour windows "
      "balanced, max gap %d\n",
      summary.total_orders,
      100.0 * summary.invalid_orders / std::max<size_t>(summary.total_orders, 1),
      100.0 * summary.zero_gap_fraction, summary.max_gap);

  st = data::SaveDataset(dataset, out);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  // Time-series observability: a TimelineRecorder scraping in the
  // background (plus one deterministic scrape per overload phase), an
  // optional SLO monitor with alert log + flight recorder, and an optional
  // loopback /metrics endpoint. See docs/observability.md.
  std::unique_ptr<obs::TimelineRecorder> recorder;
  std::unique_ptr<obs::SloMonitor> slo_monitor;
  obs::AlertLog alert_log;
  std::unique_ptr<obs::FlightRecorder> flight;
  // The flight recorder serves two masters: the SLO monitor dumps it on
  // the first alert, and the swap-under-load harness dumps it on an
  // invariant breach — so it exists whenever --flight-dir is given.
  if (cli.Has("flight-dir")) {
    flight = std::make_unique<obs::FlightRecorder>(
        obs::FlightRecorder::Config{cli.GetString("flight-dir"), 64});
  }
  if (want_timeline) {
    obs::TimelineConfig tlc;
    tlc.interval_ms =
        std::max<int64_t>(cli.GetInt("timeline-interval-ms", 200), 10);
    recorder = std::make_unique<obs::TimelineRecorder>(tlc);
    if (cli.GetBool("slo", false)) {
      std::vector<obs::SloSpec> specs = obs::DefaultServingSlos(
          cli.GetDouble("slo_availability", 0.99),
          cli.GetDouble("slo_queue_p99_us", 0.0),
          cli.GetDouble("slo_mae", 0.0));
      slo_monitor = std::make_unique<obs::SloMonitor>(std::move(specs));
      slo_monitor->set_alert_log(&alert_log);
      if (flight != nullptr) slo_monitor->set_flight_recorder(flight.get());
      recorder->set_slo_monitor(slo_monitor.get());
    }
    recorder->Start();
  }
  obs::MetricsHttpServer http_server;
  if (cli.Has("serve-metrics")) {
    const int port = static_cast<int>(cli.GetInt("serve-metrics", 0));
    st = http_server.Start(port);
    if (!st.ok()) {
      std::fprintf(stderr, "--serve-metrics: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("serving OpenMetrics on http://127.0.0.1:%d/metrics\n",
                http_server.port());
  }

  if (cli.GetBool("swap", false)) {
    // --swap implies sharded serving over --shards replicas; it subsumes
    // the static sharded scenario's checks with per-version references.
    if (!RunSwapScenario(dataset, static_cast<int>(cli.GetInt("shards", 4)),
                         static_cast<int>(cli.GetInt("swap_publishes", 120)),
                         static_cast<int>(cli.GetInt("swap_readers", 4)),
                         out)) {
      if (flight != nullptr) {
        obs::TimelineRecorder* tl = recorder.get();
        if (tl != nullptr) tl->SampleNow();
        st = flight->Dump(tl, &alert_log, "swap-under-load invariant breach");
        if (st.ok()) {
          std::fprintf(stderr, "flight bundle written to %s\n",
                       flight->bundle_dir().c_str());
        }
      }
      return 1;
    }
  } else if (cli.Has("shards")) {
    if (!RunShardedScenario(dataset,
                            static_cast<int>(cli.GetInt("shards", 4)))) {
      return 1;
    }
  }

  if (cli.GetBool("drift", false)) {
    if (!RunDriftScenario(config, out, &alert_log, flight.get())) {
      if (flight != nullptr && !flight->dumped()) {
        obs::TimelineRecorder* tl = recorder.get();
        if (tl != nullptr) tl->SampleNow();
        st = flight->Dump(tl, &alert_log, "drift-recovery gate breach");
        if (st.ok()) {
          std::fprintf(stderr, "flight bundle written to %s\n",
                       flight->bundle_dir().c_str());
        }
      }
      return 1;
    }
  }

  if (cli.GetBool("overload", false)) {
    const double burst = cli.GetDouble("overload_burst", 10.0);
    const int requests =
        static_cast<int>(cli.GetInt("overload_requests", 40));
    if (!RunOverloadScenario(dataset, std::max(burst, 1.0),
                             std::max(requests, 1), recorder.get())) {
      return 1;
    }
    if (slo_monitor != nullptr) {
      recorder->SampleNow();  // post-drain state
      const uint64_t fired = slo_monitor->alerts_fired();
      std::printf("slo: %llu alert(s) fired\n",
                  static_cast<unsigned long long>(fired));
      if (fired == 0) {
        std::fprintf(stderr,
                     "slo FAIL: overload scenario fired no alert — either "
                     "the breach induction or the burn-rate logic broke\n");
        return 1;
      }
      if (flight != nullptr && !flight->dumped()) {
        std::fprintf(stderr, "slo FAIL: alert fired but no flight bundle\n");
        return 1;
      }
      if (flight != nullptr) {
        std::printf("flight bundle written to %s\n",
                    flight->bundle_dir().c_str());
      }
    }
  }

  if (telemetry) {
    RunInstrumentedPipeline(dataset, config);
    if (cli.Has("metrics-out")) {
      std::string path = cli.GetString("metrics-out");
      st = obs::WriteJsonLines(obs::MetricsRegistry::Global().Snapshot(),
                               path);
      if (!st.ok()) {
        std::fprintf(stderr, "metrics dump failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    if (cli.Has("trace-out")) {
      std::string path = cli.GetString("trace-out");
      st = obs::TraceExporter::WriteJson(path);
      if (!st.ok()) {
        std::fprintf(stderr, "trace dump failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                  path.c_str());
    }
  }

  if (cli.Has("serve-metrics")) {
    // Self-check: scrape our own endpoint once, so a CI run proves the
    // HTTP path end to end without an external curl.
    std::string body;
    st = obs::MetricsHttpServer::Get(http_server.port(), "/metrics", &body);
    if (!st.ok() || body.find("# EOF") == std::string::npos) {
      std::fprintf(stderr, "serve-metrics self-check failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("serve-metrics self-check OK (%zu bytes)\n", body.size());
    http_server.Stop();
  }
  if (recorder != nullptr) {
    recorder->SampleNow();  // final state always makes the timeline
    recorder->Stop();
    if (cli.Has("timeline-out")) {
      const std::string path = cli.GetString("timeline-out");
      st = recorder->WriteJsonLines(path);
      if (!st.ok()) {
        std::fprintf(stderr, "timeline dump failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s (%llu scrapes)\n", path.c_str(),
                  static_cast<unsigned long long>(recorder->scrape_count()));
    }
  }
  if (cli.Has("openmetrics-out")) {
    const std::string path = cli.GetString("openmetrics-out");
    st = obs::WriteOpenMetrics(obs::MetricsRegistry::Global().Snapshot(),
                               path);
    if (!st.ok()) {
      std::fprintf(stderr, "openmetrics dump failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (cli.Has("alerts-out")) {
    const std::string path = cli.GetString("alerts-out");
    st = alert_log.WriteJsonLines(path);
    if (!st.ok()) {
      std::fprintf(stderr, "alerts dump failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu alert(s))\n", path.c_str(), alert_log.size());
  }
  return 0;
}

}  // namespace
}  // namespace deepsd

int main(int argc, char** argv) { return deepsd::Main(argc, argv); }
