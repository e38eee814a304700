#include "obs/perf.hpp"

#include <atomic>

#include <sys/resource.h>

namespace xres::obs {

namespace {

// Trivially destructible, so flushes from static-storage destructors (late
// Simulation teardown) are safe in any order.
struct GlobalCounters {
  std::atomic<std::uint64_t> events_scheduled{0};
  std::atomic<std::uint64_t> events_popped{0};
  std::atomic<std::uint64_t> events_direct{0};
  std::atomic<std::uint64_t> events_cancelled{0};
  std::atomic<std::uint64_t> watchdog_polls{0};
  std::atomic<std::uint64_t> journal_fsync_batches{0};
  std::atomic<std::uint64_t> trials_executed{0};
  std::atomic<std::uint64_t> trials_resumed{0};
  std::atomic<std::uint64_t> trials_retried{0};
  std::atomic<std::uint64_t> trials_quarantined{0};
  std::atomic<std::uint64_t> batched_trials{0};
  std::atomic<std::uint64_t> surrogate_hits{0};
  std::atomic<std::uint64_t> surrogate_fallbacks{0};
};

GlobalCounters g_counters;

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

void perf_add_engine(std::uint64_t scheduled, std::uint64_t popped,
                     std::uint64_t cancelled) {
  if (scheduled != 0) g_counters.events_scheduled.fetch_add(scheduled, kRelaxed);
  if (popped != 0) g_counters.events_popped.fetch_add(popped, kRelaxed);
  if (cancelled != 0) g_counters.events_cancelled.fetch_add(cancelled, kRelaxed);
}

void perf_add_simulation(std::uint64_t watchdog_polls, std::uint64_t direct_events) {
  if (watchdog_polls != 0) g_counters.watchdog_polls.fetch_add(watchdog_polls, kRelaxed);
  if (direct_events != 0) g_counters.events_direct.fetch_add(direct_events, kRelaxed);
}

void perf_add_journal_fsync() {
  g_counters.journal_fsync_batches.fetch_add(1, kRelaxed);
}

void perf_add_trials(std::uint64_t executed, std::uint64_t resumed,
                     std::uint64_t retried, std::uint64_t quarantined) {
  if (executed != 0) g_counters.trials_executed.fetch_add(executed, kRelaxed);
  if (resumed != 0) g_counters.trials_resumed.fetch_add(resumed, kRelaxed);
  if (retried != 0) g_counters.trials_retried.fetch_add(retried, kRelaxed);
  if (quarantined != 0) {
    g_counters.trials_quarantined.fetch_add(quarantined, kRelaxed);
  }
}

void perf_add_batched_trials(std::uint64_t count) {
  if (count != 0) g_counters.batched_trials.fetch_add(count, kRelaxed);
}

void perf_add_surrogate(std::uint64_t hits, std::uint64_t fallbacks) {
  if (hits != 0) g_counters.surrogate_hits.fetch_add(hits, kRelaxed);
  if (fallbacks != 0) g_counters.surrogate_fallbacks.fetch_add(fallbacks, kRelaxed);
}

PerfCounters perf_snapshot() {
  PerfCounters out;
  out.events_scheduled = g_counters.events_scheduled.load(kRelaxed);
  out.events_popped = g_counters.events_popped.load(kRelaxed);
  out.events_direct = g_counters.events_direct.load(kRelaxed);
  out.events_cancelled = g_counters.events_cancelled.load(kRelaxed);
  out.watchdog_polls = g_counters.watchdog_polls.load(kRelaxed);
  out.journal_fsync_batches = g_counters.journal_fsync_batches.load(kRelaxed);
  out.trials_executed = g_counters.trials_executed.load(kRelaxed);
  out.trials_resumed = g_counters.trials_resumed.load(kRelaxed);
  out.trials_retried = g_counters.trials_retried.load(kRelaxed);
  out.trials_quarantined = g_counters.trials_quarantined.load(kRelaxed);
  out.batched_trials = g_counters.batched_trials.load(kRelaxed);
  out.surrogate_hits = g_counters.surrogate_hits.load(kRelaxed);
  out.surrogate_fallbacks = g_counters.surrogate_fallbacks.load(kRelaxed);
  return out;
}

PerfCounters perf_delta(const PerfCounters& since) {
  const PerfCounters now = perf_snapshot();
  PerfCounters out;
  out.events_scheduled = now.events_scheduled - since.events_scheduled;
  out.events_popped = now.events_popped - since.events_popped;
  out.events_direct = now.events_direct - since.events_direct;
  out.events_cancelled = now.events_cancelled - since.events_cancelled;
  out.watchdog_polls = now.watchdog_polls - since.watchdog_polls;
  out.journal_fsync_batches =
      now.journal_fsync_batches - since.journal_fsync_batches;
  out.trials_executed = now.trials_executed - since.trials_executed;
  out.trials_resumed = now.trials_resumed - since.trials_resumed;
  out.trials_retried = now.trials_retried - since.trials_retried;
  out.trials_quarantined = now.trials_quarantined - since.trials_quarantined;
  out.batched_trials = now.batched_trials - since.batched_trials;
  out.surrogate_hits = now.surrogate_hits - since.surrogate_hits;
  out.surrogate_fallbacks = now.surrogate_fallbacks - since.surrogate_fallbacks;
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> perf_counter_items(
    const PerfCounters& counters) {
  return {
      {"events_scheduled", counters.events_scheduled},
      {"events_popped", counters.events_popped},
      {"events_direct", counters.events_direct},
      {"events_cancelled", counters.events_cancelled},
      {"heap_compactions", counters.heap_compactions},
      {"watchdog_polls", counters.watchdog_polls},
      {"journal_fsync_batches", counters.journal_fsync_batches},
      {"trials_executed", counters.trials_executed},
      {"trials_resumed", counters.trials_resumed},
      {"trials_retried", counters.trials_retried},
      {"trials_quarantined", counters.trials_quarantined},
      {"batched_trials", counters.batched_trials},
      {"surrogate_hits", counters.surrogate_hits},
      {"surrogate_fallbacks", counters.surrogate_fallbacks},
  };
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

}  // namespace xres::obs
