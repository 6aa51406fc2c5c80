#include "core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace deepsd {
namespace core {

namespace {

// File layout: magic "DSC1" | u32 version | u64 payload_len | payload |
// u32 CRC-32(payload). The CRC seals the payload, the length makes plain
// truncation detectable before parsing, and AtomicWriteFile guarantees the
// file at the final path is always complete.
//
// Version 3 is the only one read or written: the sample order is
// bit-packed at the width of its largest index, every tensor goes through
// the lossless float-block codec (util::PutFloatBlock; best-k snapshots
// and optimizer moments delta against the current params), and the
// payload ends with the input-reference histogram (core/drift.h) and the
// per-parameter int8 calibration table. Every encoding is bit-exact, so
// crash-resume stays bitwise. Files of the retired v1/v2 layouts are
// rejected by version, like files from the future.
constexpr char kMagic[4] = {'D', 'S', 'C', '1'};
constexpr uint32_t kVersion = 3;

// Every field is written explicitly (never whole structs) so struct padding
// can't leak indeterminate bytes into the file and two checkpoints of the
// same state are byte-identical.

void WriteConfig(util::ByteWriter* w, const TrainConfig& c) {
  w->PutPod<int32_t>(c.epochs);
  w->PutPod<int32_t>(c.batch_size);
  w->PutPod<float>(c.learning_rate);
  w->PutPod<int32_t>(c.best_k);
  w->PutPod<uint64_t>(c.seed);
  w->PutPod<uint8_t>(c.shuffle ? 1 : 0);
  w->PutPod<double>(c.lr_decay_at_fraction);
  w->PutPod<float>(c.lr_decay_factor);
  w->PutPod<int32_t>(static_cast<int32_t>(c.optimizer));
  w->PutPod<int32_t>(c.shard_size);
}

bool ReadConfig(util::ByteReader* r, TrainConfig* c) {
  int32_t epochs = 0, batch_size = 0, best_k = 0, optimizer = 0, shard = 0;
  uint8_t shuffle = 0;
  if (!r->GetPod(&epochs) || !r->GetPod(&batch_size) ||
      !r->GetPod(&c->learning_rate) || !r->GetPod(&best_k) ||
      !r->GetPod(&c->seed) || !r->GetPod(&shuffle) ||
      !r->GetPod(&c->lr_decay_at_fraction) || !r->GetPod(&c->lr_decay_factor) ||
      !r->GetPod(&optimizer) || !r->GetPod(&shard)) {
    return false;
  }
  if (optimizer < 0 || optimizer > 1) return false;
  c->epochs = epochs;
  c->batch_size = batch_size;
  c->best_k = best_k;
  c->shuffle = shuffle != 0;
  c->optimizer = static_cast<TrainConfig::Optimizer>(optimizer);
  c->shard_size = shard;
  return true;
}

void WriteStats(util::ByteWriter* w, const EpochStats& s) {
  w->PutPod<int32_t>(s.epoch);
  w->PutPod<double>(s.train_loss);
  w->PutPod<double>(s.eval_mae);
  w->PutPod<double>(s.eval_rmse);
  w->PutPod<double>(s.seconds);
  w->PutPod<double>(s.batch_seconds);
  w->PutPod<double>(s.eval_seconds);
}

bool ReadStats(util::ByteReader* r, EpochStats* s) {
  int32_t epoch = 0;
  if (!r->GetPod(&epoch) || !r->GetPod(&s->train_loss) ||
      !r->GetPod(&s->eval_mae) || !r->GetPod(&s->eval_rmse) ||
      !r->GetPod(&s->seconds) || !r->GetPod(&s->batch_seconds) ||
      !r->GetPod(&s->eval_seconds)) {
    return false;
  }
  s->epoch = epoch;
  return true;
}

// The delta reference for a tensor: the same-named, same-shaped tensor of
// `refs` (the checkpoint's current params). Writer and reader run the
// identical lookup, so a ref-delta block always decodes against the bytes
// it was encoded against.
const nn::Tensor* FindRef(const std::vector<nn::NamedTensor>* refs,
                          const std::string& name, int rows, int cols) {
  if (refs == nullptr) return nullptr;
  for (const nn::NamedTensor& nt : *refs) {
    if (nt.name == name && nt.value.rows() == rows &&
        nt.value.cols() == cols) {
      return &nt.value;
    }
  }
  return nullptr;
}

void WriteTensors(util::ByteWriter* w,
                  const std::vector<nn::NamedTensor>& tensors,
                  const std::vector<nn::NamedTensor>* refs = nullptr) {
  w->PutPod<uint64_t>(tensors.size());
  for (const nn::NamedTensor& nt : tensors) {
    w->PutString(nt.name);
    w->PutPod<int32_t>(nt.value.rows());
    w->PutPod<int32_t>(nt.value.cols());
    if (nt.value.size() > 0) {
      const nn::Tensor* ref =
          FindRef(refs, nt.name, nt.value.rows(), nt.value.cols());
      util::PutFloatBlock(w, nt.value.data(), nt.value.size(),
                          ref != nullptr ? ref->data() : nullptr);
    }
  }
}

bool ReadTensors(util::ByteReader* r, std::vector<nn::NamedTensor>* tensors,
                 const std::vector<nn::NamedTensor>* refs = nullptr) {
  uint64_t n = 0;
  if (!r->GetPod(&n)) return false;
  // A tensor costs at least its name prefix + shape, so any count beyond
  // the remaining bytes is corrupt; reject before reserving anything.
  if (n > r->remaining() / 12) return false;
  tensors->clear();
  tensors->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    nn::NamedTensor nt;
    int32_t rows = 0, cols = 0;
    if (!r->GetString(&nt.name) || !r->GetPod(&rows) || !r->GetPod(&cols)) {
      return false;
    }
    if (rows < 0 || cols < 0) return false;
    const uint64_t count = static_cast<uint64_t>(rows) *
                           static_cast<uint64_t>(cols);
    // Packed blocks can be much smaller than their element count; this
    // still bounds the allocation a corrupt length could request.
    if (count / 64 > r->remaining()) return false;
    nt.value = nn::Tensor(rows, cols);
    if (count > 0) {
      const nn::Tensor* ref = FindRef(refs, nt.name, rows, cols);
      if (!util::GetFloatBlock(r, nt.value.data(), static_cast<size_t>(count),
                               ref != nullptr ? ref->data() : nullptr)) {
        return false;
      }
    }
    tensors->push_back(std::move(nt));
  }
  return true;
}

// Sample order: the permutation's values are < order.size(), so each
// index packs into BitWidth64(max) bits instead of a raw u64 — the order
// vector is one entry per training sample and dominates small checkpoints.
void WriteOrder(util::ByteWriter* w, const std::vector<uint64_t>& order) {
  w->PutVarint64(order.size());
  uint64_t max = 0;
  for (uint64_t v : order) max = std::max(max, v);
  // bits == 0 with n > 1 is what corrupt headers use to claim huge counts
  // backed by zero payload bytes, so the reader rejects it; spend one bit
  // per element on the (degenerate, non-permutation) all-zero case instead.
  int bits = util::BitWidth64(max);
  if (bits == 0 && order.size() > 1) bits = 1;
  w->PutPod<uint8_t>(static_cast<uint8_t>(bits));
  w->PutBitPacked(order.data(), order.size(), bits);
}

bool ReadOrder(util::ByteReader* r, std::vector<uint64_t>* order) {
  uint64_t n = 0;
  uint8_t bits = 0;
  if (!r->GetVarint64(&n) || !r->GetPod(&bits) || bits > 64) return false;
  // bits == 0 encodes only all-zero content, legitimate for n <= 1.
  if (bits == 0 && n > 1) return false;
  if (util::BitPackedBytes(static_cast<size_t>(n), bits) > r->remaining()) {
    return false;
  }
  order->resize(static_cast<size_t>(n));
  return n == 0 || r->GetBitPacked(order->data(), order->size(), bits);
}

void WriteReference(util::ByteWriter* w, const ReferenceHistogram& ref) {
  w->PutPodVec(ref.bounds);
  w->PutPodVec(ref.counts);
}

bool ReadReference(util::ByteReader* r, ReferenceHistogram* ref) {
  if (!r->GetPodVec(&ref->bounds) || !r->GetPodVec(&ref->counts)) {
    return false;
  }
  // A non-empty reference must keep the bounds/counts shape invariant.
  return ref->counts.empty() || ref->counts.size() == ref->bounds.size() + 1;
}

void WritePayload(util::ByteWriter* w, const TrainerCheckpoint& ck) {
  WriteConfig(w, ck.config);
  w->PutPod<int32_t>(ck.epoch);
  w->PutPod<uint64_t>(ck.next_sample);
  w->PutPod<uint64_t>(ck.step);
  for (uint64_t word : ck.rng_state) w->PutPod<uint64_t>(word);
  WriteOrder(w, ck.order);
  w->PutPod<double>(ck.partial_loss_sum);
  w->PutPod<uint64_t>(ck.partial_batches);
  w->PutPod<uint64_t>(ck.history.size());
  for (const EpochStats& s : ck.history) WriteStats(w, s);
  WriteTensors(w, ck.params);
  w->PutPod<int64_t>(ck.adam_t);
  // Optimizer moments and best-k snapshots delta against the current
  // params: best snapshots are a few epochs stale (small XOR deltas) and
  // even loosely correlated moments pack tighter than raw fp32.
  WriteTensors(w, ck.adam_m, &ck.params);
  WriteTensors(w, ck.adam_v, &ck.params);
  WriteTensors(w, ck.sgd_velocity, &ck.params);
  w->PutPod<uint64_t>(ck.best.size());
  for (const TrainerCheckpoint::BestEntry& e : ck.best) {
    w->PutPod<double>(e.rmse);
    WriteTensors(w, e.params, &ck.params);
  }
  WriteReference(w, ck.input_reference);
  w->PutPod<uint64_t>(ck.calibration.size());
  for (const TrainerCheckpoint::Calibration& c : ck.calibration) {
    w->PutString(c.name);
    w->PutPod<float>(c.act_absmax);
  }
}

bool ReadPayload(util::ByteReader* r, TrainerCheckpoint* ck) {
  int32_t epoch = 0;
  if (!ReadConfig(r, &ck->config) || !r->GetPod(&epoch) ||
      !r->GetPod(&ck->next_sample) || !r->GetPod(&ck->step)) {
    return false;
  }
  ck->epoch = epoch;
  for (uint64_t& word : ck->rng_state) {
    if (!r->GetPod(&word)) return false;
  }
  if (!ReadOrder(r, &ck->order) || !r->GetPod(&ck->partial_loss_sum) ||
      !r->GetPod(&ck->partial_batches)) {
    return false;
  }
  uint64_t n_history = 0;
  if (!r->GetPod(&n_history) || n_history > r->remaining() / 52) return false;
  ck->history.resize(static_cast<size_t>(n_history));
  for (EpochStats& s : ck->history) {
    if (!ReadStats(r, &s)) return false;
  }
  if (!ReadTensors(r, &ck->params) || !r->GetPod(&ck->adam_t) ||
      !ReadTensors(r, &ck->adam_m, &ck->params) ||
      !ReadTensors(r, &ck->adam_v, &ck->params) ||
      !ReadTensors(r, &ck->sgd_velocity, &ck->params)) {
    return false;
  }
  uint64_t n_best = 0;
  if (!r->GetPod(&n_best) || n_best > r->remaining() / 16) return false;
  ck->best.resize(static_cast<size_t>(n_best));
  for (TrainerCheckpoint::BestEntry& e : ck->best) {
    if (!r->GetPod(&e.rmse) ||
        !ReadTensors(r, &e.params, &ck->params)) {
      return false;
    }
  }
  uint64_t n_cal = 0;
  if (!ReadReference(r, &ck->input_reference) || !r->GetPod(&n_cal) ||
      n_cal > r->remaining() / 8) {
    return false;
  }
  ck->calibration.resize(static_cast<size_t>(n_cal));
  for (TrainerCheckpoint::Calibration& c : ck->calibration) {
    if (!r->GetString(&c.name) || !r->GetPod(&c.act_absmax)) return false;
    if (!std::isfinite(c.act_absmax) || c.act_absmax < 0.0f) return false;
  }
  return r->remaining() == 0;
}

}  // namespace

util::Status SaveCheckpoint(const TrainerCheckpoint& ck,
                            const std::string& path) {
  util::ByteWriter payload;
  WritePayload(&payload, ck);

  util::ByteWriter file;
  file.PutRaw(kMagic, sizeof(kMagic));
  file.PutPod<uint32_t>(kVersion);
  file.PutPod<uint64_t>(payload.size());
  file.PutRaw(payload.bytes().data(), payload.size());
  file.PutPod<uint32_t>(
      util::Crc32(payload.bytes().data(), payload.size()));
  return util::AtomicWriteFile(path, file.bytes());
}

util::Status LoadCheckpoint(const std::string& path, TrainerCheckpoint* ck) {
  std::vector<char> bytes;
  if (util::Status s = util::ReadFileBytes(path, &bytes); !s.ok()) return s;

  util::ByteReader r(bytes);
  char magic[4] = {};
  uint32_t version = 0;
  uint64_t payload_len = 0;
  if (!r.GetRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("not a DSC1 checkpoint: " + path);
  }
  if (!r.GetPod(&version) || version != kVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported checkpoint version %u in %s", version, path.c_str()));
  }
  if (!r.GetPod(&payload_len) ||
      payload_len + sizeof(uint32_t) != r.remaining()) {
    return util::Status::IoError("truncated checkpoint: " + path);
  }
  const char* payload = bytes.data() + r.position();
  util::ByteReader pr(payload, static_cast<size_t>(payload_len));
  uint32_t stored_crc = 0;
  {
    util::ByteReader tail(payload + payload_len, sizeof(uint32_t));
    tail.GetPod(&stored_crc);
  }
  const uint32_t actual_crc =
      util::Crc32(payload, static_cast<size_t>(payload_len));
  if (stored_crc != actual_crc) {
    return util::Status::InvalidArgument(util::StrFormat(
        "checkpoint checksum mismatch in %s (stored %08x, computed %08x)",
        path.c_str(), stored_crc, actual_crc));
  }
  TrainerCheckpoint loaded;
  if (!ReadPayload(&pr, &loaded)) {
    return util::Status::InvalidArgument("malformed checkpoint payload: " +
                                         path);
  }
  *ck = std::move(loaded);
  return util::Status::OK();
}

util::Status ValidateResume(const TrainerCheckpoint& ck,
                            const TrainConfig& config,
                            const nn::ParameterStore& store) {
  auto mismatch = [](const std::string& what) {
    return util::Status::FailedPrecondition(
        "checkpoint/config mismatch: " + what);
  };
  const TrainConfig& c = ck.config;
  if (c.epochs != config.epochs) return mismatch("epochs");
  if (c.batch_size != config.batch_size) return mismatch("batch_size");
  if (c.learning_rate != config.learning_rate) return mismatch("learning_rate");
  if (c.best_k != config.best_k) return mismatch("best_k");
  if (c.seed != config.seed) return mismatch("seed");
  if (c.shuffle != config.shuffle) return mismatch("shuffle");
  if (c.lr_decay_at_fraction != config.lr_decay_at_fraction) {
    return mismatch("lr_decay_at_fraction");
  }
  if (c.lr_decay_factor != config.lr_decay_factor) {
    return mismatch("lr_decay_factor");
  }
  if (c.optimizer != config.optimizer) return mismatch("optimizer");
  if (c.shard_size != config.shard_size) return mismatch("shard_size");

  if (ck.epoch < 0 || ck.epoch > config.epochs) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "checkpoint epoch %d outside run of %d epochs", ck.epoch,
        config.epochs));
  }
  if (ck.next_sample > ck.order.size()) {
    return util::Status::FailedPrecondition(
        "checkpoint next_sample beyond its sample order");
  }

  const auto& params = store.parameters();
  if (ck.params.size() != params.size()) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "checkpoint has %zu parameters, model has %zu", ck.params.size(),
        params.size()));
  }
  for (const auto& p : params) {
    const nn::NamedTensor* found = nullptr;
    for (const nn::NamedTensor& nt : ck.params) {
      if (nt.name == p->name) {
        found = &nt;
        break;
      }
    }
    if (found == nullptr) {
      return util::Status::FailedPrecondition(
          "checkpoint missing parameter: " + p->name);
    }
    if (!found->value.SameShape(p->value)) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "checkpoint shape mismatch for %s: %dx%d vs %dx%d", p->name.c_str(),
          found->value.rows(), found->value.cols(), p->value.rows(),
          p->value.cols()));
    }
    for (size_t i = 0; i < found->value.size(); ++i) {
      if (!std::isfinite(found->value.flat()[i])) {
        return util::Status::FailedPrecondition(
            "checkpoint holds non-finite values for parameter: " + p->name);
      }
    }
  }
  return util::Status::OK();
}

void ApplyNamedTensors(const std::vector<nn::NamedTensor>& tensors,
                       nn::ParameterStore* store) {
  for (const nn::NamedTensor& nt : tensors) {
    nn::Parameter* p = store->Find(nt.name);
    DEEPSD_CHECK(p != nullptr && nt.value.SameShape(p->value));
    p->value = nt.value;
    p->BumpVersion();
  }
}

void ApplyCheckpointParams(const TrainerCheckpoint& ck,
                           nn::ParameterStore* store) {
  ApplyNamedTensors(ck.params, store);
  for (const TrainerCheckpoint::Calibration& c : ck.calibration) {
    nn::Parameter* p = store->Find(c.name);
    if (p != nullptr) p->act_absmax = c.act_absmax;
  }
}

}  // namespace core
}  // namespace deepsd
