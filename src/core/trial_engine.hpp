#pragma once

/// \file trial_engine.hpp
/// Trial execution engines.
///
/// Every single-application trial runs in a Simulation whose application
/// runtime publishes its phase boundaries and wall-time cap into the phase
/// calendar (sim/phase_calendar.hpp) — the one scheduling path shared with
/// the workload engine, tests and examples. The two trial engines differ in
/// where a planned trial's failure stream lives and in who runs the loop:
///
///  * **event** — the reference path: AppFailureProcess schedules each
///    failure as an event-queue callback (sim/event_queue.hpp) and
///    Simulation::run merges queue and calendar.
///  * **direct** — the fast path: the same draws, in the same RNG order,
///    published into a calendar slot of their own, so the trial never
///    touches the event heap, and a loop that is Simulation::run narrowed
///    to the trial's three calendar slots; plus no per-trial SeverityModel
///    or plan rebuild (thread-local caches). Every observable (results,
///    metrics including `sim_events`, traces, RNG draw order, watchdog-poll
///    timing) is byte-identical to the event path, because every seq is
///    drawn at the same point and handlers run in the same (time, seq)
///    order. The differential harness (tests/surrogate_diff_test.cpp) and
///    tier-1's determinism stage enforce that equivalence.
///
/// Trace-replay trials have a fixed, pre-ordered failure list and run one
/// path on both settings (TraceFailureProcess queues it up front).
///
/// Selection: `XRES_TRIAL_ENGINE=event|direct|auto` (default `auto`, which
/// runs direct). Tests pin the engine programmatically with
/// `ScopedTrialEngine`.

#include <cstdint>

#include "core/executor.hpp"
#include "failure/severity.hpp"
#include "resilience/plan.hpp"
#include "runtime/result.hpp"

namespace xres {

enum class TrialEngine { kEvent, kDirect };

/// The engine selected by XRES_TRIAL_ENGINE (or a live ScopedTrialEngine
/// override). Unknown values fall back to the default (`auto` → direct).
[[nodiscard]] TrialEngine trial_engine();

/// Pin the trial engine for a scope (tests, the differential harness).
/// Overrides nest; destruction restores the previous selection. The
/// override is process-global: study drivers fan trials across worker
/// threads and the whole batch must run one engine.
class ScopedTrialEngine {
 public:
  explicit ScopedTrialEngine(TrialEngine engine);
  ~ScopedTrialEngine();

  ScopedTrialEngine(const ScopedTrialEngine&) = delete;
  ScopedTrialEngine& operator=(const ScopedTrialEngine&) = delete;

 private:
  int previous_;
};

/// Run one plan trial on the direct engine. \p plan must be feasible.
[[nodiscard]] ExecutionResult run_plan_trial_direct(const ExecutionPlan& plan,
                                                    const SeverityModel& severity,
                                                    const FailureDistribution& dist,
                                                    std::uint64_t seed,
                                                    obs::TrialObs* obs);

/// Fold one finished trial into its observer: counters/gauges from the
/// ExecutionResult plus the trial-shape histograms, including the exact
/// executed-event count (identical on both engines by construction).
/// Shared by both engines so the recorded metrics agree byte for byte.
void record_trial_metrics(obs::TrialObs* obs, const ExecutionResult& r,
                          std::uint64_t sim_events);

/// Thread-local severity-model cache: returns a SeverityModel for
/// \p weights, rebuilding only when the weights change between calls
/// (within a study every trial shares one weight vector, so this is one
/// vector compare per trial instead of a normalize + alias-table build).
[[nodiscard]] const SeverityModel& cached_severity_model(
    const std::vector<double>& weights);

/// Thread-local plan cache for planner-driven trials: returns the
/// make_plan result for \p config, rebuilding only when the configuration
/// changes between calls. Within a study cell every trial shares one
/// configuration, so the multilevel optimizer (the dominant per-trial
/// setup cost) runs once per worker per cell.
[[nodiscard]] const ExecutionPlan& cached_plan(const SingleAppTrialConfig& config);

}  // namespace xres
