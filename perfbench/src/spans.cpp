#include "spans.hpp"

#include <fstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

std::int64_t since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

}  // namespace

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent) {
  const std::int64_t start = since(origin_);
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(Span{parent, std::move(name), start, -1});
  return spans_.size();
}

void SpanLog::end(std::uint64_t id) {
  const std::int64_t stop = since(origin_);
  const std::lock_guard<std::mutex> lock{mutex_};
  XRES_CHECK(id >= 1 && id <= spans_.size(), "unknown span id");
  spans_[id - 1].end_ns = stop;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

void SpanLog::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::ofstream out{path, std::ios::trunc};
  XRES_CHECK(static_cast<bool>(out), "cannot write span log " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    xres::obs::JsonWriter json;
    json.begin_object();
    json.key("id").value(static_cast<std::uint64_t>(i + 1));
    json.key("parent").value(s.parent);
    json.key("name").value(s.name);
    json.key("start_us").value(static_cast<double>(s.start_ns) / 1e3);
    json.key("end_us").value(static_cast<double>(s.end_ns) / 1e3);
    json.end_object();
    out << json.str() << '\n';
  }
  XRES_CHECK(static_cast<bool>(out.flush()), "cannot write span log " + path);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent) : log_{log} {
  if (log_ != nullptr) id_ = log_->begin(std::move(name), parent);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->end(id_);
}

}  // namespace perfbench
