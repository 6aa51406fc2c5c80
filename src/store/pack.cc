#include "store/pack.h"

#include <memory>
#include <utility>

#include "store/artifact.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace deepsd {
namespace store {

util::Status PackModelArtifact(const core::DeepSDModel& model,
                               const nn::ParameterStore& params,
                               const baselines::EmpiricalAverage* ea,
                               const PackOptions& options,
                               const std::string& path) {
  Manifest manifest;
  manifest.version_id = options.version_id;
  manifest.mode = model.mode();
  manifest.config = model.config();

  ArtifactWriter writer;
  writer.AddSection(kSectionManifest, EncodeManifest(manifest));
  std::vector<char> idx, blob;
  EncodeParamsSections(params, options.encoding, &idx, &blob);
  writer.AddSection(kSectionParamsIndex, std::move(idx));
  writer.AddSection(kSectionParamsBlob, std::move(blob));
  if (ea != nullptr) {
    writer.AddSection(kSectionEa,
                      EncodeEaSection(*ea, model.config().num_areas));
  }
  return writer.WriteFile(path);
}

util::Status PackCheckpointArtifact(const core::TrainerCheckpoint& ck,
                                    const core::DeepSDConfig& config,
                                    core::DeepSDModel::Mode mode,
                                    const baselines::EmpiricalAverage* ea,
                                    const PackOptions& options,
                                    const std::string& path) {
  nn::ParameterStore params;
  util::Rng rng(1);
  core::DeepSDModel model(config, mode, &params, &rng);
  // The checkpoint must cover the rebuilt structure exactly — a silent
  // partial apply would pack fresh random weights as if they were trained.
  for (const auto& p : params.parameters()) {
    bool found = false;
    for (const nn::NamedTensor& nt : ck.params) {
      if (nt.name == p->name) {
        if (!nt.value.SameShape(p->value)) {
          return util::Status::FailedPrecondition(util::StrFormat(
              "checkpoint parameter '%s' is [%d, %d] but the given config "
              "builds it as [%d, %d]",
              nt.name.c_str(), nt.value.rows(), nt.value.cols(),
              p->value.rows(), p->value.cols()));
        }
        found = true;
        break;
      }
    }
    if (!found) {
      return util::Status::FailedPrecondition(
          "checkpoint does not cover model parameter '" + p->name + "'");
    }
  }
  core::ApplyCheckpointParams(ck, &params);
  return PackModelArtifact(model, params, ea, options, path);
}

}  // namespace store
}  // namespace deepsd
