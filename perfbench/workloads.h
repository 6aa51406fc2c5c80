// The three workloads and the fixed settings they run at. Every offered
// load, size and interval is a constant here: nothing is calibrated from
// the program's own speed, so a faster build gets the same load.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "adapter.h"
#include "oracle.h"
#include "report.h"

namespace perfbench {

struct Scale {
  CitySpec city;
  TrainSpec train;
  int threads = 1;          ///< Global thread-pool size.
  int warmup_minute = 420;  ///< First served minute of the first serve day.
  int setup_reps = 3;       ///< Set-ups per run; setup_s is their median.

  // city_tick
  int tick_shards = 2;
  /// Untimed ticks before the timed loop; tick_mae covers exactly them.
  int warmup_ticks = 60;

  // area_queries
  int query_shards = 4;
  int query_clients = 4;  ///< Capped at nproc.
  /// The sustainable rate measured on the hosts this was built on ranged
  /// from about 500 to 1100 rps. 50 rps, a tenth of its low end, is the
  /// light-load point: queueing adds next to nothing there, so the nominal
  /// latency is the per-request cost. 250, half the low end, should always
  /// be met; 1600 is above the high end, so a gain has room to show.
  std::vector<double> ladder_rps = {50, 250, 1600};
  double nominal_rps = 50;  ///< Latencies are reported at this rung.
  int max_query_areas = 32;
  double zipf_s = 1.0;
  double query_warmup_s = 1.0;     ///< Untimed, at the nominal rate.
  int64_t query_deadline_us = 100'000;
  double latency_limit_ms = 50;  ///< Limit on a rung's tail from due time.
  int64_t ingest_interval_ms = 200;
  int64_t swap_interval_ms = 500;
  int verify_every = 32;  ///< Every n-th query is checked bitwise.

  // finetune_publish
  int finetune_shards = 2;
  SnapshotSpec snapshot;
  int probe_areas = 64;

  /// The benchmark's constants (see README.md for why each was chosen).
  static Scale Full();
  /// A seconds-long miniature for the self-test.
  static Scale Tiny();
};

struct Context {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;
  const Inputs* inputs = nullptr;
  Scale scale;
  /// Self-test hook: corrupts one served answer before its oracle sees it.
  bool corrupt_one_answer = false;
};

/// What a workload measured, in raw form; main.cc turns it into metrics.
struct Outcome {
  std::vector<double> setup_s;       ///< One per set-up.
  std::vector<Metric> end_to_end;    ///< The contract's generic names.
  std::vector<Metric> named;         ///< The workload's own metric names.
  Tally tally;

  // Inputs to the per-layer metrics.
  std::vector<ShardTiming> shard_timings;
  std::vector<double> shard_skew;
  QueueTotals queue;
  uint64_t rejected_events = 0;
  uint64_t live_versions = 0;
  std::vector<double> gen_lag_us;  ///< Open loop only.
  std::vector<double> epoch_batch_s;
  std::vector<double> epoch_eval_s;
  double flops_per_row = 0;
};

Outcome RunCityTick(const Context& ctx);
Outcome RunAreaQueries(const Context& ctx);
Outcome RunFinetunePublish(const Context& ctx);

// ---- helpers shared by the workloads ----------------------------------------

double SecondsSince(int64_t start_ns);

/// The set-up every workload shares: assembler build, model train,
/// calibrate and pack, artifact open, predictor build, feed warm-up.
struct Deployment {
  std::unique_ptr<Offline> offline;
  std::shared_ptr<const Artifact> artifact;
  std::unique_ptr<Service> service;
  FitStats fit;
};
/// Builds a Deployment into `out`, first tearing down what it held (users
/// before what they use); returns an error message or "".
std::string Deploy(const Context& ctx, const ServiceSpec& spec,
                   const std::string& artifact_path, Deployment* out);

/// Records the shard-level timings of one served answer.
void RecordShards(const Answer& answer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
