#include <algorithm>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

Scale Scale::Full() {
  Scale s;
  s.snapshot.day = s.city.ref_days - 1;
  return s;
}

Scale Scale::Tiny() {
  Scale s;
  s.city.areas = 40;
  s.city.ref_days = 3;
  s.city.serve_days = 1;
  // Dense enough that some area orders every minute: at 1.0 the 40-area
  // city went 20 minutes without an order before midnight, which serving
  // treats, by design, as a stalled order feed.
  s.city.mean_scale = 2.0;
  s.train.item_stride = 120;
  s.train.eval_items = 64;
  s.setup_reps = 2;
  s.warmup_ticks = 5;
  s.ladder_rps = {20, 40, 80};
  s.nominal_rps = 20;
  s.max_query_areas = 8;
  s.verify_every = 4;
  s.ingest_interval_ms = 50;
  s.swap_interval_ms = 100;
  s.snapshot.day = s.city.ref_days - 1;
  s.snapshot.area_step = 1;
  s.snapshot.eval_area_step = 2;
  s.snapshot.epochs = 1;
  s.snapshot.probe_items = 16;
  s.probe_areas = 16;
  return s;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

std::string Deploy(const Context& ctx, const ServiceSpec& spec,
                   const std::string& artifact_path, Deployment* out) {
  const Inputs& in = *ctx.inputs;
  out->service.reset();
  out->artifact.reset();
  out->offline.reset();
  out->offline = Offline::Build(in, ctx.scale.train, &out->fit);
  out->offline->Calibrate();
  std::string err = out->offline->Pack(artifact_path, "v1");
  if (err.empty()) err = Artifact::Open(artifact_path, &out->artifact);
  if (!err.empty()) return err;
  out->service =
      std::make_unique<Service>(in, *out->offline, out->artifact, spec);
  const int day = in.first_serve_day();
  for (int m = ctx.scale.warmup_minute - 20; m < ctx.scale.warmup_minute;
       ++m) {
    out->service->Feed(day, m);
  }
  return "";
}

void RecordShards(const Answer& answer, Outcome* out) {
  std::vector<double> totals;
  for (const ShardTiming& s : answer.shards) {
    out->shard_timings.push_back(s);
    totals.push_back(static_cast<double>(s.total_us));
  }
  if (totals.size() >= 2) {
    const double med = Median(totals);
    const double slowest = *std::max_element(totals.begin(), totals.end());
    if (med > 0) out->shard_skew.push_back(slowest / med);
  }
}

}  // namespace perfbench
