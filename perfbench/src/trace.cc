#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Length of the union of `intervals` (sorted in place).
double UnionMs(
    std::vector<std::pair<Clock::time_point, Clock::time_point>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  Clock::duration total{0};
  Clock::time_point cur_lo{}, cur_hi{};
  bool open = false;
  for (const auto& [lo, hi] : *intervals) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return Ms(total);
}

}  // namespace

void SpanRecorder::Record(uint64_t id, const char* name,
                          Clock::time_point start, Clock::time_point end,
                          uint64_t parent, uint64_t request_id) {
  naru::MutexLock lock(&mu_);
  spans_.push_back(Span{name, start, end, id, parent, request_id});
}

uint64_t SpanRecorder::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, uint64_t parent,
                              uint64_t request_id) {
  const uint64_t id = NewId();
  Record(id, name, start, end, parent, request_id);
  return id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  naru::MutexLock lock(&mu_);
  return spans_;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const auto lo = std::max(s.start, p.start);
    const auto hi = std::min(s.end, p.end);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = Ms(spans[i].end - spans[i].start) - UnionMs(&covered[i]);
  }
  return self;
}

double CoveredMs(const std::vector<Span>& spans, const char* name,
                 Clock::time_point lo, Clock::time_point hi) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    const auto a = std::max(s.start, lo);
    const auto b = std::min(s.end, hi);
    if (a < b) iv.emplace_back(a, b);
  }
  return UnionMs(&iv);
}

std::map<std::string, double> SpanRecorder::SelfTimeMsByLayer() const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  return by_layer;
}

naru::Status SpanRecorder::WriteJsonl(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return naru::Status::IOError("cannot write " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.start);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, Ms(s.start - origin) * 1e3, Ms(s.end - origin) * 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  if (std::fclose(f) != 0) return naru::Status::IOError("cannot close " + path);
  return naru::Status::OK();
}

}  // namespace perfbench
