#pragma once

/// \file trial_engine.hpp
/// The single-application trial engine.
///
/// Every planned single-application trial (the Monte-Carlo trials behind
/// Figures 1-3) runs here, on one path: the application runtime publishes
/// its phase boundaries and wall-time cap into the phase calendar
/// (sim/phase_calendar.hpp), the one scheduling path shared with the
/// workload engine, tests and examples; the failure stream draws
/// AppFailureProcess's draws, in the same RNG order, into a calendar slot
/// of its own, so the trial never touches the event heap; and a loop
/// (run_direct), Simulation::run narrowed to the trial's three calendar
/// slots, runs it. Severity models and plans are cached per thread, so no
/// trial rebuilds them.
///
/// Between interrupts the loop hands the Working⇄Checkpointing alternation
/// to ResilientAppRuntime::run_chain(). The chain keeps each next boundary
/// in a local instead of the calendar while it precedes the next failure
/// and the wall-time cap. Per boundary it costs one clock and event credit,
/// the handler arithmetic the calendar path runs, and one seq draw.
/// Observed trials chain too: metrics and trace spans are recorded by that
/// shared arithmetic.
///
/// **The event-queue oracle.** The same trial can also be built from
/// public parts: AppFailureProcess schedules each failure as an event-queue
/// callback (sim/event_queue.hpp) and Simulation::run merges queue and
/// calendar. That construction is not a production path. It is the
/// reference tests/surrogate_diff_test.cpp runs every trial of its matrix
/// through, and the direct engine must match it in every observable:
/// results, metrics including `sim_events`, traces, RNG draw order, seq
/// draws, executed-event and watchdog-poll counts. It does, because every
/// seq is drawn at the same point and handlers run in the same (time, seq)
/// order. The chained-vs-calendar runtime tests (tests/runtime_test.cpp)
/// and tier-1's cross-commit determinism goldens
/// (tests/data/efficiency_a32_s7.*) guard the same contract.
///
/// Trace-replay trials have a fixed, pre-ordered failure list and run on
/// Simulation::run (TraceFailureProcess queues it up front; core/executor.cpp).

#include <cstdint>

#include "core/executor.hpp"
#include "failure/severity.hpp"
#include "resilience/plan.hpp"
#include "runtime/result.hpp"
#include "sim/phase_calendar.hpp"

namespace xres {

class ResilientAppRuntime;
class Simulation;

/// Run one plan trial on the direct engine. \p plan must be feasible.
[[nodiscard]] ExecutionResult run_plan_trial_direct(const ExecutionPlan& plan,
                                                    const SeverityModel& severity,
                                                    const FailureDistribution& dist,
                                                    std::uint64_t seed,
                                                    obs::TrialObs* obs);

/// The direct engine's dispatch loop: Simulation::run narrowed to a trial
/// whose every pending entry is one of \p runtime's two calendar slots or
/// \p failure (the event queue stays empty), with the same watchdog
/// cadence, stop check and (time, seq) order. The front is found by
/// comparing those three entries directly; the earlier of the failure and
/// the wall-time cap bounds a ResilientAppRuntime::run_chain() over the
/// Working⇄Checkpointing boundaries before it. Returns when the run
/// requests a stop or nothing is pending.
void run_direct(Simulation& sim, ResilientAppRuntime& runtime, CalendarSlot failure);

/// Fold one finished trial into its observer: counters/gauges from the
/// ExecutionResult plus the trial-shape histograms, including the exact
/// executed-event count. Shared with trace-replay trials and the
/// event-queue oracle so the recorded metrics agree byte for byte.
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
