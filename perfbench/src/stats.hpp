#pragma once

/// \file stats.hpp
/// Small measurement helpers for the benchmark executable: clocks, process
/// resource usage, order statistics and a stable digest.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock readings.
[[nodiscard]] double seconds_between(Clock::time_point from, Clock::time_point to);

/// User + system CPU seconds consumed by this process so far (all threads).
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of this process, MiB (0 when unknown).
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints), at least 1.
[[nodiscard]] unsigned available_cpus();

/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
[[nodiscard]] std::string cpu_model();

/// Median of \p values (mean of the middle pair for even counts); 0 for an
/// empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// The \p q quantile (0..1) by linear interpolation between order
/// statistics; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// FNV-1a over the bytes of everything fed to it. Doubles are hashed by
/// their bit pattern, so two digests agree only for bit-identical results.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_bytes(const void* data, std::size_t n);
  std::uint64_t h_{1469598103934665603ULL};
};

/// Consume \p v so the computation producing it cannot be optimized away.
void keep(double v);

/// Microseconds per operation of \p batch, a call that performs \p ops
/// operations: the median over \p reps timed calls, divided by \p ops.
/// Timing whole batches keeps clock overhead out of sub-microsecond calls.
template <class Fn>
[[nodiscard]] double per_op_us(int reps, std::size_t ops, Fn&& batch) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    batch();
    us.push_back(seconds_between(start, Clock::now()) * 1e6);
  }
  return ops == 0 ? 0.0 : median(std::move(us)) / static_cast<double>(ops);
}

}  // namespace perfbench
