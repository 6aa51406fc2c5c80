// The benchmark's only door into the program. Every call the workloads
// make into sim, feature, core/nn, store, serving and eval goes through the
// classes below, and only adapter.cc includes the program's headers — so an
// API change in the program edits this pair of files, not the workloads.
//
// Each call into a module is wrapped in a trace span (trace.h) named after
// the module, so a traced run can split time by layer.
#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// ---- environment ----------------------------------------------------------

/// Pins what the program reads from its environment: blocked kernels, a
/// global thread pool of exactly `threads`, telemetry export off. Returns
/// an error message, empty on success.
std::string PinEnvironment(int threads);
/// True when the DEEPSD_FAULTS fault-injection spec is set.
bool FaultInjectionRequested();
/// Best-of-several GF/s of the blocked GEMM kernel at 64x64x64 — the
/// reference peak forward.peak_frac compares against.
double GemmPeakGflops();

// ---- simulated inputs (sim) -----------------------------------------------

struct CitySpec {
  int areas = 1000;
  int ref_days = 7;    ///< History and training period: days [0, ref_days).
  int serve_days = 2;  ///< Streamed live after the reference period.
  double mean_scale = 0.2;
  uint64_t seed = 1;
};

/// The generated city. Input generation only: the program never sees the
/// simulator, just the events and ground truth read from here.
class Inputs {
 public:
  static std::unique_ptr<Inputs> Generate(const CitySpec& spec);
  ~Inputs();
  int num_areas() const;
  int num_days() const;
  int first_serve_day() const;
  size_t num_orders() const;
  /// The simulator's gap of `area` over [minute, minute + 10) of `day`.
  int TrueGap(int area, int day, int minute) const;

  struct Impl;
  const Impl& impl() const { return *impl_; }

 private:
  explicit Inputs(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

// ---- offline side: feature assembly, training, packing --------------------

struct TrainSpec {
  int item_stride = 240;   ///< Minutes between training items per area-day.
  int train_days = 1;      ///< Most recent reference days trained on.
  int epochs = 1;
  int eval_items = 512;
  uint64_t seed = 7;
};

struct FitStats {
  size_t samples = 0;  ///< Training samples processed (items x epochs).
  std::vector<double> batch_s;  ///< Per epoch, eval excluded.
  std::vector<double> eval_s;   ///< Per epoch.
  double eval_mae = 0;          ///< After the last epoch.
};

class Artifact;

/// Feature assembler and EmpiricalAverage baseline over the reference
/// days, plus an advanced-mode (paper Fig. 7) model trained on them.
class Offline {
 public:
  static std::unique_ptr<Offline> Build(const Inputs& inputs,
                                        const TrainSpec& spec,
                                        FitStats* stats);
  ~Offline();
  /// core::CalibrateActivations over the training items — the step every
  /// publish runs between trained weights and the packed artifact.
  void Calibrate();
  /// Packs the in-memory model and baseline as a DSAR1 artifact.
  std::string Pack(const std::string& path,
                   const std::string& version_id) const;
  /// Forward FLOPs per input row, from the GEMM parameter shapes.
  double ForwardFlopsPerRow() const;

  struct Impl;
  const Impl& impl() const { return *impl_; }

 private:
  explicit Offline(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// An opened DSAR1 artifact (zero-copy mapped model version).
class Artifact {
 public:
  static std::string Open(const std::string& path,
                          std::shared_ptr<const Artifact>* out);
  ~Artifact();

  struct Impl;
  const Impl& impl() const { return *impl_; }

 private:
  explicit Artifact(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Fine-tunes from a serving artifact over a fixed snapshot of recent
/// items (offline advanced features), then publishes the result.
struct SnapshotSpec {
  int day = 0;          ///< Snapshot day (a recent reference day).
  int item_stride = 120;
  int area_step = 12;   ///< Every area_step-th area contributes items.
  int eval_stride = 240;
  int eval_area_step = 8;
  int epochs = 2;
  int probe_items = 64;  ///< Fixed inputs the publish oracle compares on.
};

class FineTuner {
 public:
  FineTuner(const Offline& offline, const SnapshotSpec& spec);
  ~FineTuner();
  FineTuner(const FineTuner&) = delete;
  FineTuner& operator=(const FineTuner&) = delete;

  size_t snapshot_items() const;
  /// Trainer::FineTuneFrom warm-started from `base`'s parameters.
  FitStats FineTuneFrom(const Artifact& base);
  /// core::CalibrateActivations over the snapshot.
  void Calibrate();
  std::string Pack(const std::string& path,
                   const std::string& version_id) const;
  /// The in-memory fine-tuned model's answers on the probe inputs.
  std::vector<float> PredictProbe() const;
  /// `artifact`'s answers on the same probe inputs.
  std::vector<float> PredictProbe(const Artifact& artifact) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- online side: sharded versioned serving --------------------------------

struct ShardTiming {
  int shard = 0;
  size_t areas = 0;
  bool admitted = false;
  int64_t queue_wait_us = 0;
  int64_t total_us = 0;
  uint64_t sequence = 0;
};

/// One PredictCity answer, in the benchmark's own terms.
struct Answer {
  std::vector<float> gaps;
  bool tier_none = false;  ///< Served at FallbackTier::kNone.
  bool fully_served = false;
  bool deadline_expired = false;
  uint64_t sequence = 0;   ///< Publish sequence the call was pinned to.
  std::vector<ShardTiming> shards;
};

struct QueueTotals {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deadline_misses = 0;
};

struct ServiceSpec {
  int shards = 2;
  size_t queue_capacity = 64;  ///< Per shard.
};

/// store::VersionedModel -> serving::ShardedPredictor with an
/// OnlineAccuracyTracker on every shard, fed minute by minute from the
/// generated inputs.
class Service {
 public:
  Service(const Inputs& inputs, const Offline& offline,
          std::shared_ptr<const Artifact> first, const ServiceSpec& spec);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Ingests minute `minute` of `day` (orders, traffic, weather) and
  /// advances the clock past it. Returns the events ingested.
  size_t Feed(int day, int minute);
  /// PredictCity over `areas` under a deadline at `deadline_at_ns` on the
  /// steady clock (NowNs); <= 0 means no deadline.
  Answer Predict(const std::vector<int>& areas, int64_t deadline_at_ns);
  /// Recomputes `areas` through the functions PredictCity composes:
  /// AssembleLive on each area's owning shard, then DeepSDModel::Predict on
  /// the version pinned now. `*sequence` receives that version's sequence.
  std::vector<float> Replay(const std::vector<int>& areas,
                            uint64_t* sequence);
  /// Publishes `version` (SwapModel). Returns an error message or "".
  std::string Swap(std::shared_ptr<const Artifact> version);
  /// Versions alive after reclaim: the current one plus retirees still
  /// pinned by readers.
  uint64_t LiveVersions();

  int num_shards() const;
  int ShardOf(int area) const;
  QueueTotals queue_totals() const;
  uint64_t rejected_events() const;
  uint64_t current_sequence() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// A direct single-shard serving::OnlinePredictor over one artifact's model,
/// fed the same stream — the reference the oracles compare against.
class Reference {
 public:
  Reference(const Inputs& inputs, const Offline& offline,
            std::shared_ptr<const Artifact> artifact);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  size_t Feed(int day, int minute);
  /// PredictBatch with no deadline; `*tier_none` reports the tier.
  std::vector<float> Predict(const std::vector<int>& areas, bool* tier_none);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
