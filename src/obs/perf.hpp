#pragma once

/// \file perf.hpp
/// Always-on process-global performance counters. Engine objects accumulate
/// plain (non-atomic) per-object tallies in their hot paths and flush them
/// here exactly once — from a destructor or a batch boundary — so the hot
/// loop costs one integer increment per event and the globals stay
/// TSAN-clean (relaxed atomics touched only at flush points).
///
/// Counter *totals* are deterministic: each is a sum of per-trial values
/// that the determinism contract already fixes, so the same study at
/// `--threads 1` and `--threads 8` reports identical numbers. Wall-clock
/// readings (perf.hpp's consumers pair the counters with timings) are not,
/// which is why they live outside every CRC-checked artifact.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xres::obs {

/// One coherent reading of every global counter.
struct PerfCounters {
  std::uint64_t events_scheduled{0};
  /// Events dispatched by popping the event heap.
  std::uint64_t events_popped{0};
  /// Events dispatched without touching the heap: phase-calendar slots
  /// (application phase boundaries and wall-time caps, and the direct
  /// trial engine's failure stream; sim/simulation.hpp). popped + direct
  /// is every executed simulation event.
  std::uint64_t events_direct{0};
  std::uint64_t events_cancelled{0};
  std::uint64_t heap_compactions{0};
  std::uint64_t watchdog_polls{0};
  std::uint64_t journal_fsync_batches{0};
  std::uint64_t trials_executed{0};
  std::uint64_t trials_resumed{0};
  std::uint64_t trials_retried{0};
  std::uint64_t trials_quarantined{0};
  /// Simulated single-application trials: planned trials (the trial
  /// engine, core/trial_engine.hpp) and trace replays. Trials whose plan is
  /// infeasible return without simulating and do not count.
  std::uint64_t batched_trials{0};
  /// Study cells answered by the analytic surrogate without simulating
  /// (resilience/surrogate.hpp) / cells where the error bound forced a
  /// fall back to full simulation.
  std::uint64_t surrogate_hits{0};
  std::uint64_t surrogate_fallbacks{0};

  /// Every executed simulation event: heap pops plus direct dispatches.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_popped + events_direct;
  }
};

/// Flush one event-queue's lifetime tallies (called from ~EventQueue).
void perf_add_engine(std::uint64_t scheduled, std::uint64_t popped,
                     std::uint64_t cancelled, std::uint64_t compactions);

/// Flush one simulation's watchdog-poll and calendar-dispatch tallies
/// (called from ~Simulation).
void perf_add_simulation(std::uint64_t watchdog_polls, std::uint64_t direct_events);

/// Count one journal fsync batch (called at each successful flush_to_disk).
void perf_add_journal_fsync();

/// Flush one executor batch's trial accounting.
void perf_add_trials(std::uint64_t executed, std::uint64_t resumed,
                     std::uint64_t retried, std::uint64_t quarantined);

/// Count simulated single-application trials (`batched_trials`).
void perf_add_batched_trials(std::uint64_t count);

/// Count surrogate-answered cells and bound-exceeded fallbacks.
void perf_add_surrogate(std::uint64_t hits, std::uint64_t fallbacks);

/// Current totals since process start.
[[nodiscard]] PerfCounters perf_snapshot();

/// Totals accumulated after \p since (element-wise difference).
[[nodiscard]] PerfCounters perf_delta(const PerfCounters& since);

/// Counters as (name, value) pairs in the fixed emission order used by
/// perf.json and ledger records.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> perf_counter_items(
    const PerfCounters& counters);

/// Peak resident set size of this process in bytes (getrusage), 0 if
/// unavailable. Nondeterministic by nature; never CRC-checked.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace xres::obs
