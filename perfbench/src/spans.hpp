#pragma once

/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run. A span is a named
/// interval around one call into a layer, with the id of the span that
/// caused it. Spans are kept in memory and written once, at the end of the
/// run, so recording costs a clock read and a locked vector append.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpanLog {
 public:
  /// Open a span under \p parent (0 = a root span); returns its id (> 0).
  /// Thread-safe.
  std::uint64_t begin(std::string name, std::uint64_t parent);
  /// Close span \p id. Thread-safe.
  void end(std::uint64_t id);

  [[nodiscard]] std::size_t size() const;

  /// One JSON object per line: id, parent, name, start_us, end_us (both
  /// relative to the log's creation). Throws CheckError on I/O failure.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t parent{0};
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{-1};
  };

  const Clock::time_point origin_{Clock::now()};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // id = index + 1
};

/// A span for the lifetime of the object; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, to pass as the parent of nested spans (0 when the log
  /// is null).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_{0};
};

}  // namespace perfbench
