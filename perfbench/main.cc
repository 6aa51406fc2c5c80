// deepsd_perfbench: the repository benchmark's binary. Normally run
// through perfbench/run.py, which builds it first:
//
//   deepsd_perfbench --workload city_tick|area_queries|finetune_publish
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--scale full|tiny]
//   deepsd_perfbench --selftest-oracles
//
// --corrupt-one-answer (self-test only) corrupts one served answer before its
// oracle sees it, to prove the run reports the failure.
//
// Prints the host fingerprint, every metric as a line, and as the last line
// one JSON result. With --trace 1 the workload runs twice — untraced, then
// with spans around every call into the program — and the result carries
// the per-layer metrics and the tracing overhead instead.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string scale = "full";
  bool selftest_oracles = false;
  bool corrupt_one_answer = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest-oracles" || k == "--corrupt-one-answer") {
      (k == "--selftest-oracles" ? a->selftest_oracles
                                 : a->corrupt_one_answer) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--scale") {
      a->scale = v;
    } else {
      return false;
    }
  }
  return a->selftest_oracles ||
         ((a->workload == "city_tick" || a->workload == "area_queries" ||
           a->workload == "finetune_publish") &&
          a->seconds > 0 && (a->scale == "full" || a->scale == "tiny"));
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Pins the process, and so every thread it starts, to the lowest CPU it may
/// run on. Returns that CPU, or -1 when the affinity cannot be set. The
/// virtual CPUs of the hosts this runs on share physical cores with other
/// tenants, so how many of them really run in parallel changes from minute
/// to minute; one CPU gives every run the same amount of parallelism.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

Outcome RunWorkload(const Context& ctx, const std::string& name) {
  if (name == "city_tick") return RunCityTick(ctx);
  if (name == "area_queries") return RunAreaQueries(ctx);
  return RunFinetunePublish(ctx);
}

const SpanTotals& Totals(const std::map<std::string, SpanTotals>& s,
                         const char* name) {
  static const SpanTotals kEmpty;
  auto it = s.find(name);
  return it == s.end() ? kEmpty : it->second;
}

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0;
}

/// Per-layer metrics of a traced run: spans the adapter recorded around
/// each call into a module, plus the counters the workload collected.
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const Outcome& t, double peak_gflops) {
  const auto s = Tracer::Summarize(spans);
  std::vector<Metric> m;
  const SpanTotals& ingest = Totals(s, "serving.ingest");
  m.push_back({"ingest.events", ingest.work, "count", "higher", ""});
  m.push_back({"ingest.busy_us_per_kevent",
               PerUnit(ingest.total_us, ingest.work / 1000.0), "us", "lower",
               ""});
  m.push_back({"ingest.rejected", static_cast<double>(t.rejected_events),
               "count", "lower", ""});

  std::vector<double> wait, service;
  for (const ShardTiming& st : t.shard_timings) {
    if (!st.admitted) continue;
    wait.push_back(static_cast<double>(st.queue_wait_us));
    service.push_back(static_cast<double>(st.total_us - st.queue_wait_us));
  }
  const Tail wait_tail = TailOf(wait);
  m.push_back({"shard.queue_wait_p50_us", Median(wait), "us", "lower", ""});
  m.push_back({"shard.queue_wait_tail_us", wait_tail.value, "us", "lower",
               "p" + std::to_string(wait_tail.percentile).substr(0, 4) +
                   " of " + std::to_string(wait_tail.samples)});
  m.push_back({"shard.service_p50_us", Median(service), "us", "lower", ""});
  m.push_back({"shard.skew", Median(t.shard_skew), "ratio", "lower",
               "slowest / median shard time per call"});

  m.push_back({"queue.offered", static_cast<double>(t.queue.offered),
               "count", "higher", ""});
  m.push_back({"queue.admitted", static_cast<double>(t.queue.admitted),
               "count", "higher", ""});
  m.push_back({"queue.shed", static_cast<double>(t.queue.shed), "count",
               "lower", ""});
  m.push_back({"queue.deadline_misses",
               static_cast<double>(t.queue.deadline_misses), "count", "lower",
               ""});
  m.push_back({"queue.admit_ratio",
               PerUnit(static_cast<double>(t.queue.admitted),
                       static_cast<double>(t.queue.offered)),
               "ratio", "higher", ""});

  const SpanTotals& live = Totals(s, "feature.assemble_live");
  const SpanTotals& offline = Totals(s, "feature.assemble_offline");
  m.push_back({"feature.live_us_per_area", PerUnit(live.total_us, live.work),
               "us", "lower", "serial AssembleLive"});
  m.push_back({"feature.offline_us_per_item",
               PerUnit(offline.total_us, offline.work), "us", "lower",
               "FeatureAssembler::AssembleAdvanced"});

  const SpanTotals& fwd = Totals(s, "forward.predict");
  const double gflops =
      PerUnit(t.flops_per_row * fwd.work, fwd.total_us * 1e3);
  m.push_back({"forward.rows", fwd.work, "count", "higher", ""});
  m.push_back({"forward.us_per_row", PerUnit(fwd.total_us, fwd.work), "us",
               "lower", "DeepSDModel::Predict"});
  m.push_back({"forward.gflops", gflops, "GF/s", "higher",
               "from parameter shapes"});
  m.push_back({"forward.peak_frac", PerUnit(gflops, peak_gflops), "ratio",
               "higher", "vs GemmBlocked 64^3"});

  const SpanTotals& calib = Totals(s, "train.calibrate");
  m.push_back({"train.batch_s", Median(t.epoch_batch_s), "s", "lower",
               "median epoch"});
  m.push_back({"train.eval_s", Median(t.epoch_eval_s), "s", "lower",
               "median epoch"});
  m.push_back({"train.calibrate_ms",
               PerUnit(calib.total_us / 1e3, static_cast<double>(calib.count)),
               "ms", "lower", ""});

  const SpanTotals& pack = Totals(s, "store.pack");
  const SpanTotals& open = Totals(s, "store.open");
  const SpanTotals& swap = Totals(s, "store.swap");
  m.push_back({"store.pack_ms",
               PerUnit(pack.total_us / 1e3, static_cast<double>(pack.count)),
               "ms", "lower", ""});
  m.push_back({"store.open_ms",
               PerUnit(open.total_us / 1e3, static_cast<double>(open.count)),
               "ms", "lower", ""});
  m.push_back({"store.swap_us",
               PerUnit(swap.total_us, static_cast<double>(swap.count)), "us",
               "lower", ""});
  m.push_back({"store.live_versions", static_cast<double>(t.live_versions),
               "count", "lower", "after reclaim"});

  const SpanTotals& obs = Totals(s, "eval.observer");
  m.push_back({"observer.us_per_call",
               PerUnit(obs.total_us, static_cast<double>(obs.count)), "us",
               "lower", "OnlineAccuracyTracker tap"});

  // Only the open loop has due times; a closed loop's next call is due when
  // the previous one returns, so it reports 0.
  const Tail lag_tail = TailOf(t.gen_lag_us);
  const char* lag_note = t.gen_lag_us.empty() ? "closed loop: no schedule" : "";
  m.push_back({"gen.lag_p50_us", Median(t.gen_lag_us), "us", "lower",
               lag_note});
  m.push_back({"gen.lag_tail_us", lag_tail.value, "us", "lower", lag_note});
  return m;
}

std::vector<Metric> EndToEnd(const Outcome& o) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(o.setup_s), "s", "lower",
               "median of " + std::to_string(o.setup_s.size()) + " set-ups"});
  for (const Metric& e : o.end_to_end) m.push_back(e);
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", "lower", ""});
  return m;
}

int SelftestOracles() {
  int bad = 0;
  auto expect = [&](bool fails, const std::string& what) {
    std::printf("oracle self-test: %-44s %s\n", what.c_str(),
                fails ? "caught" : "MISSED");
    if (!fails) ++bad;
  };
  Answer good;
  good.gaps = {1.0f, 2.0f, 3.0f};
  good.tier_none = good.fully_served = true;
  good.sequence = 3;
  good.shards = {{0, 2, true, 1, 5, 3}, {1, 1, true, 1, 5, 3}};
  const std::vector<float> want = good.gaps;
  if (!CheckTick(good, 3, want, true).empty() ||
      !CheckQuery(good, 3, &want).empty() ||
      !CheckPublish(want, want, 4, 4).empty()) {
    std::printf("oracle self-test: a correct answer was rejected\n");
    ++bad;
  }
  Answer flipped = good;
  flipped.gaps[1] = std::nextafter(flipped.gaps[1], 10.0f);
  expect(!CheckTick(flipped, 3, want, true).empty(), "tick: one ulp off");
  expect(!CheckQuery(flipped, 3, &want).empty(), "query: one ulp off");
  Answer truncated = good;
  truncated.gaps.pop_back();
  expect(!CheckTick(truncated, 3, want, true).empty(), "tick: truncated");
  expect(!CheckQuery(truncated, 3, nullptr).empty(), "query: truncated");
  Answer nan = good;
  nan.gaps[0] = std::nanf("");
  expect(!CheckQuery(nan, 3, nullptr).empty(), "query: non-finite");
  Answer mixed = good;
  mixed.shards[1].sequence = 2;
  expect(!CheckQuery(mixed, 3, nullptr).empty(), "query: version-mixed");
  Answer degraded = good;
  degraded.fully_served = false;
  expect(!CheckTick(degraded, 3, want, true).empty(), "tick: degraded");
  std::vector<float> pub = want;
  pub[2] += 1;
  expect(!CheckPublish(pub, want, 4, 4).empty(), "publish: wrong answer");
  expect(!CheckPublish(want, want, 3, 4).empty(), "publish: not swapped");
  Tally t;
  t.Record("");
  t.Record("x");
  expect(t.attempted == 2 && t.failed == 1, "tally counts failures");
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: deepsd_perfbench --workload "
                 "city_tick|area_queries|finetune_publish --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--scale full|tiny]\n");
    return 2;
  }
  if (args.selftest_oracles) return SelftestOracles();
  if (FaultInjectionRequested()) {
    std::fprintf(stderr, "refusing to run: DEEPSD_FAULTS is set\n");
    return 2;
  }

  Context ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.work_dir = args.work_dir;
  ctx.scale = args.scale == "tiny" ? Scale::Tiny() : Scale::Full();
  ctx.scale.city.seed = args.seed;
  ctx.corrupt_one_answer = args.corrupt_one_answer;
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin the process to one CPU\n");
    return 2;
  }
  const std::string pin = PinEnvironment(ctx.scale.threads);
  if (!pin.empty()) {
    std::fprintf(stderr, "cannot pin the environment: %s\n", pin.c_str());
    return 2;
  }
  std::printf("host nproc=%u cpu=\"%s\" compiler=\"gcc %s\" march_native=%d "
              "pinned_cpu=%d kernel=blocked pool_threads=%d\n",
              nproc, CpuModel().c_str(), __VERSION__, PERFBENCH_NATIVE_ARCH,
              cpu, ctx.scale.threads);
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.scale.c_str());

  const int64_t gen_start = NowNs();
  std::unique_ptr<Inputs> inputs = Inputs::Generate(ctx.scale.city);
  ctx.inputs = inputs.get();
  std::printf("inputs areas=%d days=%d orders=%zu generate_s=%.3f "
              "(information only, not part of setup_s)\n",
              inputs->num_areas(), inputs->num_days(), inputs->num_orders(),
              SecondsSince(gen_start));
  std::fflush(stdout);

  const Outcome u = RunWorkload(ctx, args.workload);
  const std::vector<Metric> e2e = EndToEnd(u);
  Tally tally = u.tally;

  std::vector<Metric> result = e2e;
  if (args.trace) {
    Context tctx = ctx;
    tctx.traced = true;
    tctx.scale.setup_reps = 1;
    const double peak = GemmPeakGflops();
    Tracer tracer;
    Tracer::Install(&tracer);
    const Outcome t = RunWorkload(tctx, args.workload);
    Tracer::Install(nullptr);
    tally.Merge(t.tally);
    const std::vector<Span> spans = tracer.Collect();
    result = LayerMetrics(spans, t, peak);
    const std::vector<Metric> traced_e2e = EndToEnd(t);
    for (size_t i = 0; i < e2e.size() && i < traced_e2e.size(); ++i) {
      result.push_back({"overhead." + e2e[i].name,
                        traced_e2e[i].value - e2e[i].value, e2e[i].unit,
                        e2e[i].better, "traced minus untraced"});
    }
    const auto totals = Tracer::Summarize(spans);
    for (const auto& [name, st] : totals) {
      std::printf("span %-28s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_us / 1e3, st.self_us / 1e3);
    }
    const std::string trace_path =
        ctx.work_dir + "/trace_" + args.workload + ".json";
    if (Tracer::WriteJson(spans, trace_path)) {
      std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                  spans.size());
    }
  }

  PrintMetrics("end2end", e2e);
  std::vector<Metric> named = u.named;
  named.push_back(e2e.front());
  named.push_back(e2e.back());
  named.push_back({"ops_failed_frac",
                   PerUnit(static_cast<double>(tally.failed),
                           static_cast<double>(tally.attempted)),
                   "ratio", "lower",
                   std::to_string(tally.failed) + " of " +
                       std::to_string(tally.attempted)});
  PrintMetrics(args.workload, named);
  if (args.trace) PrintMetrics("layer", result);
  for (const std::string& f : tally.first_failures) {
    std::printf("FAILURE %s\n", f.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(tally.attempted, 1),
                                 tally.failed, result)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
