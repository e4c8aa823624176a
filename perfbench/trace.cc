#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  const char* layer;
  const char* op;
  double start;
  double end;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
const auto g_origin = std::chrono::steady_clock::now();
thread_local uint64_t t_open = 0;  // innermost open span on this thread

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_origin)
      .count();
}

}  // namespace

Span::Span(const char* layer, const char* op, uint64_t request)
    : layer_(layer), op_(op), request_(request) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  on_ = true;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open;
  t_open = id_;
  start_ = Now();
}

Span::~Span() {
  if (!on_) return;
  const double end = Now();
  t_open = parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(
      Record{id_, parent_, request_, layer_, op_, start_, end});
}

void EnableTracing(bool on) { g_enabled.store(on); }

size_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_records.size();
}

std::map<std::string, double> SelfSecondsByLayer() {
  std::lock_guard<std::mutex> lock(g_mu);
  // Children of one parent run on the parent's thread, one after the
  // other, so the time they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_seconds;
  for (const Record& r : g_records) {
    if (r.parent != 0) child_seconds[r.parent] += r.end - r.start;
  }
  std::map<std::string, double> out;
  for (const Record& r : g_records) {
    double self = r.end - r.start;
    auto it = child_seconds.find(r.id);
    if (it != child_seconds.end()) self -= it->second;
    out[r.layer] += self;
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : g_records) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"layer\":\"%s\",\"op\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f}\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.layer, r.op,
                 r.start, r.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
