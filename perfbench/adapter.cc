#include "adapter.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "baselines/empirical_average.h"
#include "core/batch.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/online_accuracy.h"
#include "feature/feature_assembler.h"
#include "nn/kernels.h"
#include "nn/parameter.h"
#include "obs/obs.h"
#include "serving/online_predictor.h"
#include "serving/sharded_predictor.h"
#include "sim/city_sim.h"
#include "store/pack.h"
#include "store/stored_model.h"
#include "store/versioned_model.h"
#include "trace.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace deepsd;  // NOLINT: this file is the program boundary.

// ---- environment ----------------------------------------------------------

std::string PinEnvironment(int threads) {
  nn::kernels::SetKernelMode(nn::kernels::KernelMode::kBlocked);
  obs::SetEnabled(false);
  util::Status st = util::ThreadPool::SetGlobalThreads(threads);
  if (!st.ok()) return st.ToString();
  if (util::ThreadPool::GlobalThreads() != threads) {
    return "thread pool did not take the requested size";
  }
  return "";
}

bool FaultInjectionRequested() {
  const char* spec = std::getenv("DEEPSD_FAULTS");
  return spec != nullptr && spec[0] != '\0';
}

double GemmPeakGflops() {
  constexpr int kN = 64;
  std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
  for (int i = 0; i < kN * kN; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(i % 17) * 0.01f;
    b[static_cast<size_t>(i)] = static_cast<float>(i % 13) * 0.02f;
  }
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    int iters = 0;
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    while (t1 - t0 < 40'000'000) {
      for (int k = 0; k < 64; ++k) {
        nn::kernels::GemmBlocked(a.data(), b.data(), c.data(), kN, kN, kN,
                                 false);
      }
      iters += 64;
      t1 = NowNs();
    }
    const double flops = 2.0 * kN * kN * kN * iters;
    best = std::max(best, flops / static_cast<double>(t1 - t0));
  }
  return best;  // flops per ns == GF/s
}

// ---- shared helpers ---------------------------------------------------------

namespace {

/// Streams minute `minute` of `day` into `sink` (a ShardedPredictor or an
/// OrderStreamBuffer — both expose the feed calls), then advances past it.
template <typename Sink>
size_t FeedMinute(const data::OrderDataset& dataset, int day, int minute,
                  Sink* sink, const char* span_name) {
  ScopedSpan span(span_name);
  size_t events = 0;
  for (int a = 0; a < dataset.num_areas(); ++a) {
    for (const data::Order& o : dataset.OrdersAt(a, day, minute)) {
      sink->AddOrder(o);
      ++events;
    }
    data::TrafficRecord tr = dataset.TrafficAt(a, day, minute);
    tr.area = a;
    tr.day = day;
    tr.ts = minute;
    sink->AddTraffic(tr);
    ++events;
  }
  data::WeatherRecord w = dataset.WeatherAt(day, minute);
  w.day = day;
  w.ts = minute;
  sink->AddWeather(w);
  ++events;
  if (minute + 1 < data::kMinutesPerDay) {
    sink->AdvanceTo(day, minute + 1);
  } else {
    sink->AdvanceTo(day + 1, 0);
  }
  span.set_work(static_cast<double>(events));
  return events;
}

/// AssemblerSource with a span per assembled item (feature layer, offline).
class TimedSource : public core::InputSource {
 public:
  TimedSource(const feature::FeatureAssembler* assembler,
              std::vector<data::PredictionItem> items)
      : inner_(assembler, std::move(items), /*advanced=*/true) {}
  size_t size() const override { return inner_.size(); }
  feature::ModelInput Get(size_t index) const override {
    ScopedSpan span("feature.assemble_offline", 1);
    return inner_.Get(index);
  }
  float Target(size_t index) const override { return inner_.Target(index); }

 private:
  core::AssemblerSource inner_;
};

/// Every `step`-th item of `items`, capped at `cap` (0 = no cap).
std::vector<data::PredictionItem> Thin(std::vector<data::PredictionItem> items,
                                       size_t step, size_t cap) {
  std::vector<data::PredictionItem> out;
  for (size_t i = 0; i < items.size(); i += std::max<size_t>(step, 1)) {
    out.push_back(items[i]);
    if (cap != 0 && out.size() == cap) break;
  }
  return out;
}

std::vector<data::PredictionItem> AreaSubset(
    std::vector<data::PredictionItem> items, int area_step) {
  std::vector<data::PredictionItem> out;
  for (const data::PredictionItem& it : items) {
    if (it.area % std::max(area_step, 1) == 0) out.push_back(it);
  }
  return out;
}

FitStats ToFitStats(const core::TrainResult& r, size_t items) {
  FitStats s;
  s.samples = items * r.history.size();
  for (const core::EpochStats& e : r.history) {
    s.batch_s.push_back(e.batch_seconds);
    s.eval_s.push_back(e.eval_seconds);
  }
  s.eval_mae = r.final_eval_mae;
  return s;
}

/// core::CalibrateActivations over `source` — the step every publish runs
/// between trained weights and the packed artifact.
void CalibrateModel(const core::DeepSDModel& model,
                    const core::InputSource& source) {
  ScopedSpan span("train.calibrate");
  core::CalibrateActivations(model, source);
}

/// Packs `model` and the baseline `ea` as a DSAR1 artifact at `path`.
std::string PackModel(const core::DeepSDModel& model,
                      const nn::ParameterStore& params,
                      const baselines::EmpiricalAverage* ea,
                      const std::string& path, const std::string& version_id) {
  ScopedSpan span("store.pack");
  store::PackOptions po;
  po.version_id = version_id;
  util::Status st = store::PackModelArtifact(model, params, ea, po, path);
  return st.ok() ? "" : st.ToString();
}

/// Times the online accuracy tracker's prediction tap (eval layer).
class TimedObserver : public serving::PredictionObserver {
 public:
  explicit TimedObserver(serving::PredictionObserver* inner) : inner_(inner) {}
  void OnPrediction(const std::vector<int>& area_ids,
                    const serving::PredictResult& result,
                    const std::vector<float>& activity,
                    int64_t now_abs) override {
    ScopedSpan span("eval.observer", static_cast<double>(area_ids.size()));
    inner_->OnPrediction(area_ids, result, activity, now_abs);
  }

 private:
  serving::PredictionObserver* inner_;
};

}  // namespace

// ---- Inputs -------------------------------------------------------------------

struct Inputs::Impl {
  CitySpec spec;
  data::OrderDataset dataset;
};

Inputs::Inputs(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Inputs::~Inputs() = default;

std::unique_ptr<Inputs> Inputs::Generate(const CitySpec& spec) {
  sim::CityConfig cc;
  cc.num_areas = spec.areas;
  cc.num_days = spec.ref_days + spec.serve_days;
  cc.seed = spec.seed;
  cc.mean_scale = spec.mean_scale;
  auto impl = std::make_unique<Impl>();
  impl->spec = spec;
  impl->dataset = sim::SimulateCity(cc);
  return std::unique_ptr<Inputs>(new Inputs(std::move(impl)));
}

int Inputs::num_areas() const { return impl_->dataset.num_areas(); }
int Inputs::num_days() const { return impl_->dataset.num_days(); }
int Inputs::first_serve_day() const { return impl_->spec.ref_days; }
size_t Inputs::num_orders() const { return impl_->dataset.num_orders(); }
int Inputs::TrueGap(int area, int day, int minute) const {
  return impl_->dataset.Gap(area, day, minute);
}

// ---- Offline --------------------------------------------------------------------

struct Offline::Impl {
  const data::OrderDataset* dataset = nullptr;
  std::unique_ptr<feature::FeatureAssembler> assembler;
  std::unique_ptr<baselines::EmpiricalAverage> ea;
  core::DeepSDConfig config;
  core::TrainConfig train_config;
  std::unique_ptr<nn::ParameterStore> params;
  std::unique_ptr<core::DeepSDModel> model;
  std::unique_ptr<TimedSource> train;
  std::unique_ptr<TimedSource> eval;
};

Offline::Offline(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Offline::~Offline() = default;

std::unique_ptr<Offline> Offline::Build(const Inputs& inputs,
                                        const TrainSpec& spec,
                                        FitStats* stats) {
  auto impl = std::make_unique<Impl>();
  const data::OrderDataset& ds = inputs.impl().dataset;
  const int ref_days = inputs.first_serve_day();
  impl->dataset = &ds;
  {
    ScopedSpan span("feature.build_assembler");
    impl->assembler = std::make_unique<feature::FeatureAssembler>(
        &ds, feature::FeatureConfig{}, 0, ref_days);
  }
  const int first_train_day = std::max(0, ref_days - spec.train_days);
  std::vector<data::PredictionItem> items = data::MakeItems(
      ds, first_train_day, ref_days, 20, 1430, spec.item_stride);
  {
    ScopedSpan span("baselines.fit");
    impl->ea = std::make_unique<baselines::EmpiricalAverage>();
    impl->ea->Fit(items);
  }
  std::vector<data::PredictionItem> eval_all =
      data::MakeItems(ds, ref_days - 1, ref_days, 25, 1430, 30);
  const size_t eval_step =
      std::max<size_t>(1, eval_all.size() / static_cast<size_t>(
                                               std::max(spec.eval_items, 1)));
  impl->train = std::make_unique<TimedSource>(impl->assembler.get(), items);
  impl->eval = std::make_unique<TimedSource>(
      impl->assembler.get(),
      Thin(std::move(eval_all), eval_step,
           static_cast<size_t>(spec.eval_items)));

  impl->config.num_areas = ds.num_areas();
  impl->config.use_weather = ds.has_weather();
  impl->config.use_traffic = ds.has_traffic();
  impl->params = std::make_unique<nn::ParameterStore>();
  util::Rng rng(spec.seed);
  impl->model = std::make_unique<core::DeepSDModel>(
      impl->config, core::DeepSDModel::Mode::kAdvanced, impl->params.get(),
      &rng);
  impl->train_config.epochs = spec.epochs;
  impl->train_config.best_k = 0;
  impl->train_config.seed = spec.seed;

  {
    ScopedSpan span("train.fit");
    core::TrainResult r = core::Trainer(impl->train_config)
                              .Train(impl->model.get(), impl->params.get(),
                                     *impl->train, *impl->eval);
    if (stats != nullptr) *stats = ToFitStats(r, impl->train->size());
  }
  return std::unique_ptr<Offline>(new Offline(std::move(impl)));
}

void Offline::Calibrate() { CalibrateModel(*impl_->model, *impl_->train); }

std::string Offline::Pack(const std::string& path,
                          const std::string& version_id) const {
  return PackModel(*impl_->model, *impl_->params, impl_->ea.get(), path,
                   version_id);
}

double Offline::ForwardFlopsPerRow() const {
  double flops = 0;
  for (const auto& p : impl_->params->parameters()) {
    const std::string& n = p->name;
    if (n.size() > 2 && n.compare(n.size() - 2, 2, ".w") == 0) {
      flops += 2.0 * p->value.rows() * p->value.cols();
    }
  }
  return flops;
}

// ---- Artifact -----------------------------------------------------------------

struct Artifact::Impl {
  std::shared_ptr<const store::StoredModel> model;
};

Artifact::Artifact(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Artifact::~Artifact() = default;

std::string Artifact::Open(const std::string& path,
                           std::shared_ptr<const Artifact>* out) {
  ScopedSpan span("store.open");
  auto impl = std::make_unique<Impl>();
  util::Status st = store::StoredModel::Open(path, &impl->model);
  if (!st.ok()) return st.ToString();
  *out = std::shared_ptr<const Artifact>(new Artifact(std::move(impl)));
  return "";
}

// ---- FineTuner ------------------------------------------------------------------

struct FineTuner::Impl {
  const Offline::Impl* offline = nullptr;
  core::TrainConfig train_config;
  nn::ParameterStore params;
  std::unique_ptr<core::DeepSDModel> model;
  std::unique_ptr<TimedSource> snapshot;
  std::unique_ptr<TimedSource> eval;
  std::vector<feature::ModelInput> probe;
};

FineTuner::FineTuner(const Offline& offline, const SnapshotSpec& spec)
    : impl_(std::make_unique<Impl>()) {
  const Offline::Impl& off = offline.impl();
  impl_->offline = &off;
  const data::OrderDataset& ds = *off.dataset;
  impl_->snapshot = std::make_unique<TimedSource>(
      off.assembler.get(),
      AreaSubset(data::MakeItems(ds, spec.day, spec.day + 1, 20, 1430,
                                 spec.item_stride),
                 spec.area_step));
  std::vector<data::PredictionItem> eval_items =
      AreaSubset(data::MakeItems(ds, spec.day, spec.day + 1, 50, 1430,
                                 spec.eval_stride),
                 spec.eval_area_step);
  impl_->eval =
      std::make_unique<TimedSource>(off.assembler.get(), eval_items);
  for (size_t i = 0; i < eval_items.size() &&
                     impl_->probe.size() < static_cast<size_t>(spec.probe_items);
       i += std::max<size_t>(1, eval_items.size() / spec.probe_items)) {
    impl_->probe.push_back(off.assembler->AssembleAdvanced(eval_items[i]));
  }
  util::Rng rng(off.train_config.seed + 1);
  impl_->model = std::make_unique<core::DeepSDModel>(
      off.config, core::DeepSDModel::Mode::kAdvanced, &impl_->params, &rng);
  impl_->train_config = off.train_config;
  impl_->train_config.epochs = spec.epochs;
}

FineTuner::~FineTuner() = default;

size_t FineTuner::snapshot_items() const { return impl_->snapshot->size(); }

FitStats FineTuner::FineTuneFrom(const Artifact& base) {
  ScopedSpan span("train.fit");
  core::TrainResult r = core::Trainer(impl_->train_config)
                            .FineTuneFrom(impl_->model.get(), &impl_->params,
                                          base.impl().model->params(),
                                          *impl_->snapshot, *impl_->eval);
  return ToFitStats(r, impl_->snapshot->size());
}

void FineTuner::Calibrate() {
  CalibrateModel(*impl_->model, *impl_->snapshot);
}

std::string FineTuner::Pack(const std::string& path,
                            const std::string& version_id) const {
  return PackModel(*impl_->model, impl_->params, impl_->offline->ea.get(),
                   path, version_id);
}

std::vector<float> FineTuner::PredictProbe() const {
  ScopedSpan span("forward.predict", static_cast<double>(impl_->probe.size()));
  return impl_->model->Predict(impl_->probe);
}

std::vector<float> FineTuner::PredictProbe(const Artifact& artifact) const {
  ScopedSpan span("forward.predict", static_cast<double>(impl_->probe.size()));
  return artifact.impl().model->model().Predict(impl_->probe);
}

// ---- Service ------------------------------------------------------------------

struct Service::Impl {
  const data::OrderDataset* dataset = nullptr;
  store::VersionedModel versions;
  std::unique_ptr<eval::OnlineAccuracyTracker> tracker;
  std::unique_ptr<TimedObserver> timed_observer;
  std::unique_ptr<serving::ShardedPredictor> sharded;  // dies first
};

Service::Service(const Inputs& inputs, const Offline& offline,
                 std::shared_ptr<const Artifact> first,
                 const ServiceSpec& spec)
    : impl_(std::make_unique<Impl>()) {
  ScopedSpan span("serving.build");
  impl_->dataset = &inputs.impl().dataset;
  {
    // The first publish is a swap from nothing: it is timed with the rest.
    ScopedSpan swap("store.swap");
    util::Status st = impl_->versions.Publish(first->impl().model);
    DEEPSD_CHECK_MSG(st.ok(), st.ToString().c_str());
  }
  serving::ShardedPredictorConfig sc;
  sc.ring.num_shards = spec.shards;
  sc.queue.capacity = spec.queue_capacity;
  sc.queue.watchdog_stuck_us = 0;
  impl_->sharded = std::make_unique<serving::ShardedPredictor>(
      &impl_->versions, offline.impl().assembler.get(), sc);
  eval::OnlineAccuracyConfig ac;
  ac.num_areas = inputs.num_areas();
  impl_->tracker = std::make_unique<eval::OnlineAccuracyTracker>(ac);
  serving::PredictionObserver* tap = impl_->tracker.get();
  if (Tracer::active() != nullptr) {
    impl_->timed_observer = std::make_unique<TimedObserver>(tap);
    tap = impl_->timed_observer.get();
  }
  for (int s = 0; s < spec.shards; ++s) {
    serving::OnlinePredictor& p = impl_->sharded->shard_predictor(s);
    p.set_prediction_observer(tap);
    p.buffer().set_stream_observer(impl_->tracker.get());
  }
}

Service::~Service() {
  for (int s = 0; s < impl_->sharded->num_shards(); ++s) {
    serving::OnlinePredictor& p = impl_->sharded->shard_predictor(s);
    p.set_prediction_observer(nullptr);
    p.buffer().set_stream_observer(nullptr);
  }
  impl_->sharded.reset();
}

size_t Service::Feed(int day, int minute) {
  return FeedMinute(*impl_->dataset, day, minute, impl_->sharded.get(),
                    "serving.ingest");
}

Answer Service::Predict(const std::vector<int>& areas,
                        int64_t deadline_at_ns) {
  ScopedSpan span("serving.predict_city", static_cast<double>(areas.size()));
  const util::Deadline deadline =
      deadline_at_ns <= 0 ? util::Deadline::Infinite()
                          : util::Deadline::AtSteadyUs(deadline_at_ns / 1000);
  serving::CityPredictResult r = impl_->sharded->PredictCity(areas, deadline);
  Answer a;
  a.gaps = std::move(r.gaps);
  a.tier_none = r.tier == serving::FallbackTier::kNone;
  a.fully_served = r.fully_served;
  a.deadline_expired = r.deadline_expired;
  a.sequence = r.model_sequence;
  a.shards.reserve(r.shards.size());
  for (const serving::ShardOutcome& o : r.shards) {
    ShardTiming t;
    t.shard = o.shard;
    t.areas = o.num_areas;
    t.admitted = o.verdict == serving::AdmitVerdict::kAdmitted;
    t.queue_wait_us = o.queue_wait_us;
    t.total_us = o.total_us;
    t.sequence = o.model_sequence;
    a.shards.push_back(t);
  }
  return a;
}

std::vector<float> Service::Replay(const std::vector<int>& areas,
                                   uint64_t* sequence) {
  store::VersionedModel::Ref pin = impl_->versions.Acquire();
  *sequence = pin.sequence();
  std::vector<feature::ModelInput> inputs(areas.size());
  {
    ScopedSpan span("feature.assemble_live",
                    static_cast<double>(areas.size()));
    for (size_t i = 0; i < areas.size(); ++i) {
      inputs[i] = impl_->sharded->shard_predictor(
                                    impl_->sharded->ShardOf(areas[i]))
                      .AssembleLive(areas[i]);
    }
  }
  ScopedSpan span("forward.predict", static_cast<double>(areas.size()));
  return pin.version()->model().Predict(inputs, /*batch_size=*/16);
}

std::string Service::Swap(std::shared_ptr<const Artifact> version) {
  ScopedSpan span("store.swap");
  util::Status st = impl_->sharded->SwapModel(version->impl().model);
  return st.ok() ? "" : st.ToString();
}

uint64_t Service::LiveVersions() {
  impl_->versions.TryReclaim();
  return impl_->versions.stats().retired_live + 1;
}

int Service::num_shards() const { return impl_->sharded->num_shards(); }
int Service::ShardOf(int area) const { return impl_->sharded->ShardOf(area); }

QueueTotals Service::queue_totals() const {
  const serving::ServingQueueStats m = impl_->sharded->stats().merged();
  QueueTotals t;
  t.offered = m.offered;
  t.admitted = m.admitted;
  t.shed = m.shed_total();
  t.deadline_misses = m.deadline_misses;
  return t;
}

uint64_t Service::rejected_events() const {
  uint64_t n = 0;
  for (int s = 0; s < impl_->sharded->num_shards(); ++s) {
    n += impl_->sharded->shard_predictor(s).buffer().rejected_events();
  }
  return n;
}

uint64_t Service::current_sequence() const {
  return impl_->sharded->current_model_sequence();
}

// ---- Reference ------------------------------------------------------------------

struct Reference::Impl {
  const data::OrderDataset* dataset = nullptr;
  std::shared_ptr<const Artifact> artifact;
  std::unique_ptr<serving::OnlinePredictor> predictor;
};

Reference::Reference(const Inputs& inputs, const Offline& offline,
                     std::shared_ptr<const Artifact> artifact)
    : impl_(std::make_unique<Impl>()) {
  impl_->dataset = &inputs.impl().dataset;
  impl_->artifact = std::move(artifact);
  const store::StoredModel& stored = *impl_->artifact->impl().model;
  impl_->predictor = std::make_unique<serving::OnlinePredictor>(
      &stored.model(), offline.impl().assembler.get());
  impl_->predictor->set_baseline(stored.baseline());
}

Reference::~Reference() = default;

size_t Reference::Feed(int day, int minute) {
  return FeedMinute(*impl_->dataset, day, minute, &impl_->predictor->buffer(),
                    "oracle.ingest");
}

std::vector<float> Reference::Predict(const std::vector<int>& areas,
                                      bool* tier_none) {
  serving::PredictResult r =
      impl_->predictor->PredictBatch(areas, util::Deadline::Infinite());
  *tier_none = r.tier == serving::FallbackTier::kNone;
  return std::move(r.gaps);
}

}  // namespace perfbench
