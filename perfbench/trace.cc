#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_generation{1};

struct ThreadCache {
  uint64_t generation = 0;
  void* log = nullptr;
  uint64_t request = 0;
};
thread_local ThreadCache t_cache;

}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : generation_(g_next_generation.fetch_add(1)) {}

Tracer::~Tracer() {
  Tracer* self = this;
  active_.compare_exchange_strong(self, nullptr);
}

void Tracer::Install(Tracer* tracer) {
  active_.store(tracer, std::memory_order_release);
}

Tracer::ThreadLog* Tracer::LogForThisThread() {
  if (t_cache.generation == generation_) {
    return static_cast<ThreadLog*>(t_cache.log);
  }
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = logs_.back().get();
  log->thread = static_cast<int>(logs_.size()) - 1;
  log->spans.reserve(1 << 12);
  t_cache.generation = generation_;
  t_cache.log = log;
  return log;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    const int64_t offset = static_cast<int64_t>(all.size());
    for (Span s : log->spans) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  return all;
}

std::map<std::string, SpanTotals> Tracer::Summarize(
    const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_us += us;
    t.self_us += us - child_us[i];
    t.work += s.work;
  }
  return out;
}

bool Tracer::WriteJson(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu,\"work\":%.17g}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.work);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, double work) {
  Tracer* tracer = Tracer::active();
  if (tracer == nullptr) return;
  log_ = tracer->LogForThisThread();
  Span s;
  s.name = name;
  s.parent = log_->open.empty() ? -1 : log_->open.back();
  s.request = t_cache.request;
  s.work = work;
  s.thread = log_->thread;
  index_ = static_cast<int64_t>(log_->spans.size());
  log_->open.push_back(index_);
  s.start_ns = NowNs();
  log_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  log_->open.pop_back();
}

void ScopedSpan::set_work(double work) {
  if (log_ != nullptr) log_->spans[static_cast<size_t>(index_)].work = work;
}

ScopedRequest::ScopedRequest(uint64_t request) : prev_(t_cache.request) {
  t_cache.request = request;
}

ScopedRequest::~ScopedRequest() { t_cache.request = prev_; }

}  // namespace perfbench
