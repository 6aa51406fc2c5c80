// finetune_publish: closed loop. Each iteration fine-tunes from the serving
// artifact over a fixed snapshot of recent items, then publishes: calibrate,
// pack, open and swap into the serving predictor, which otherwise sits idle.
// The only workload that runs backward, the optimizer, offline assembly and
// the store's write path.
#include <algorithm>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

Outcome RunFinetunePublish(const Context& ctx) {
  const Scale& sc = ctx.scale;
  const Inputs& in = *ctx.inputs;
  Outcome out;
  ServiceSpec spec;
  spec.shards = sc.finetune_shards;
  const std::string base_path = ctx.work_dir + "/finetune_v1.dsar";

  Deployment dep;
  std::unique_ptr<FineTuner> tuner;
  for (int rep = 0; rep < sc.setup_reps; ++rep) {
    tuner.reset();  // it reads the deployment Deploy is about to replace
    const int64_t t0 = NowNs();
    const std::string err = Deploy(ctx, spec, base_path, &dep);
    if (!err.empty()) {
      out.tally.Record("set-up failed: " + err);
      return out;
    }
    tuner = std::make_unique<FineTuner>(*dep.offline, sc.snapshot);
    out.setup_s.push_back(SecondsSince(t0));
  }
  for (double s : dep.fit.batch_s) out.epoch_batch_s.push_back(s);
  for (double s : dep.fit.eval_s) out.epoch_eval_s.push_back(s);
  out.flops_per_row = dep.offline->ForwardFlopsPerRow();
  Service& svc = *dep.service;

  // Serving-side oracle probe: a fixed spread of areas over every shard.
  std::vector<int> probe;
  for (int a = 0; a < in.num_areas();
       a += std::max(1, in.num_areas() / sc.probe_areas)) {
    probe.push_back(a);
  }

  std::vector<double> publish_ms;
  size_t samples = 0;
  double batch_s = 0;
  double first_mae = 0;
  uint64_t expected_sequence = svc.current_sequence();
  const int64_t loop_start = NowNs();
  for (int iter = 0; iter == 0 || SecondsSince(loop_start) < ctx.seconds;
       ++iter) {
    ScopedRequest request(static_cast<uint64_t>(iter) + 1);
    const FitStats fit = tuner->FineTuneFrom(*dep.artifact);
    samples += fit.samples;
    for (double s : fit.batch_s) {
      batch_s += s;
      out.epoch_batch_s.push_back(s);
    }
    for (double s : fit.eval_s) out.epoch_eval_s.push_back(s);

    // Publish: from trained weights to serving.
    const int64_t p0 = NowNs();
    tuner->Calibrate();
    const std::string path =
        ctx.work_dir + (iter % 2 == 0 ? "/finetune_a.dsar" : "/finetune_b.dsar");
    std::string err = tuner->Pack(path, "ft-" + std::to_string(iter));
    std::shared_ptr<const Artifact> published;
    if (err.empty()) err = Artifact::Open(path, &published);
    if (err.empty()) err = svc.Swap(published);
    publish_ms.push_back(static_cast<double>(NowNs() - p0) * 1e-6);
    ++expected_sequence;

    // Oracle, outside the timed spans: the artifact answers exactly like the
    // in-memory model, serving moved to it, and a served call replays.
    if (iter == 0) {
      first_mae = fit.eval_mae;
    } else if (err.empty() && fit.eval_mae != first_mae) {
      err = "fine-tune from the same base is not deterministic";
    }
    if (err.empty()) {
      std::vector<float> from_artifact = tuner->PredictProbe(*published);
      if (ctx.corrupt_one_answer && iter == 0 && !from_artifact.empty()) {
        from_artifact[0] += 1.0f;
      }
      err = CheckPublish(from_artifact, tuner->PredictProbe(),
                         svc.current_sequence(), expected_sequence);
    }
    if (err.empty()) {
      const Answer served = svc.Predict(probe, 0);
      RecordShards(served, &out);
      uint64_t seq = 0;
      const std::vector<float> replay = svc.Replay(probe, &seq);
      err = CheckQuery(served, probe.size(), &replay);
      if (err.empty() && served.sequence != expected_sequence) {
        err = "served call not pinned to the published version";
      }
    }
    out.tally.Record(err);
  }
  out.queue = svc.queue_totals();
  out.rejected_events = svc.rejected_events();
  out.live_versions = svc.LiveVersions();

  const Tail tail = TailOf(publish_ms);
  const double p50 = Median(publish_ms);
  const double samples_per_s =
      batch_s > 0 ? static_cast<double>(samples) / batch_s : 0;
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f of %zu publishes", tail.percentile,
                tail.samples);
  out.end_to_end = {
      {"latency_ms", p50, "ms", "lower",
       "p50 publish: calibrate + pack + open + swap"},
      {"throughput_per_s", samples_per_s, "1/s", "higher",
       "fine-tune samples per second, eval excluded"},
  };
  out.named = {
      {"train_samples_per_s", samples_per_s, "1/s", "higher",
       std::to_string(tuner->snapshot_items()) + " snapshot items"},
      {"finetune_mae", first_mae, "gap", "lower", ""},
      {"publish_ms", p50, "ms", "lower", "p50"},
      {"publish_tail_ms", tail.value, "ms", "lower", note},
  };
  return out;
}

}  // namespace perfbench
