#include "support/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace dvs {

namespace {

double ms_between(RequestTrace::Clock::time_point a,
                  RequestTrace::Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

void RequestTrace::add(const std::string& name, Clock::time_point start,
                       Clock::time_point end, int depth) {
  TraceSpan span;
  span.name = name;
  span.depth = depth;
  span.start_ms = ms_between(epoch_, start);
  span.dur_ms = ms_between(start, end);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> RequestTrace::spans() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    return std::tie(a.start_ms, a.depth, a.name) <
           std::tie(b.start_ms, b.depth, b.name);
  });
  return out;
}

Json RequestTrace::json() const {
  Json::Array arr;
  for (const TraceSpan& span : spans()) {
    Json::Object obj;
    obj["name"] = Json(span.name);
    obj["depth"] = Json(static_cast<std::int64_t>(span.depth));
    obj["start_ms"] = Json(span.start_ms);
    obj["dur_ms"] = Json(span.dur_ms);
    arr.push_back(Json(std::move(obj)));
  }
  return Json(std::move(arr));
}

double RequestTrace::phase_total_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const TraceSpan& span : spans_)
    if (span.depth == 0) total += span.dur_ms;
  return total;
}

TraceLog::TraceLog(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "a");
  if (!file_) throw std::runtime_error("trace log: cannot open " + path);
}

TraceLog::~TraceLog() {
  if (file_) std::fclose(file_);
}

void TraceLog::write(const Json& record) {
  const std::string line = record.dump();
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace dvs
