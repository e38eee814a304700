// Differential harness for the single-application trial engine and the
// analytic surrogate (core/surrogate.hpp). Sweeps (study, params, seed)
// cells through:
//
//  * the direct trial engine (TrialExecutor, at 1 and 4 worker threads,
//    observed and unobserved) vs. the queued-callback oracle below, run
//    serially — every ExecutionResult field, the merged metrics and trial
//    0's trace must match exactly (byte drift fails);
//  * surrogate-answered vs. fully-simulated efficiency studies — anchor and
//    fallback cells must be bit-identical to the simulated study, and every
//    surrogate-answered cell must sit within its reported error bound.
//
// A fast subset runs in tier-1 (and under TSAN via the Surrogate filter);
// the full matrix is guarded by XRES_SMOKE_ALL=1.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/surrogate.hpp"
#include "core/trial_engine.hpp"
#include "failure/process.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "obs/trial_obs.hpp"
#include "resilience/planner.hpp"
#include "resilience/technique.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XRES_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define XRES_TEST_TSAN 1
#endif

constexpr bool tsan_build() {
#ifdef XRES_TEST_TSAN
  return true;
#else
  return false;
#endif
}

bool full_matrix() { return std::getenv("XRES_SMOKE_ALL") != nullptr; }

/// Field-exact ExecutionResult comparison: engine and oracle promise
/// identical arithmetic, so even the accumulated doubles must match bit for bit.
void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.wall_time, b.wall_time) << label;
  EXPECT_EQ(a.baseline, b.baseline) << label;
  EXPECT_EQ(a.efficiency, b.efficiency) << label;
  EXPECT_EQ(a.failures_seen, b.failures_seen) << label;
  EXPECT_EQ(a.failures_masked, b.failures_masked) << label;
  EXPECT_EQ(a.rollbacks, b.rollbacks) << label;
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed) << label;
  EXPECT_EQ(a.time_working, b.time_working) << label;
  EXPECT_EQ(a.time_checkpointing, b.time_checkpointing) << label;
  EXPECT_EQ(a.time_restarting, b.time_restarting) << label;
  EXPECT_EQ(a.time_recovering, b.time_recovering) << label;
  EXPECT_EQ(a.rework, b.rework) << label;
  EXPECT_EQ(a.node_seconds, b.node_seconds) << label;
}

/// The queued-callback oracle for one planned trial, built from library
/// API only: AppFailureProcess schedules each failure as a queued callback
/// and Simulation::run fires the calendar's front, the runtime's slots
/// included. The direct engine draws the same failures in the same
/// RNG order from a calendar slot of its own and must reproduce every
/// observable of this construction (core/trial_engine.hpp).
ExecutionResult run_event_trial(const PlanTrialSpec& spec, std::uint64_t seed,
                                obs::TrialObs* obs) {
  // Infeasible plans return without simulating: no engine is involved.
  if (!spec.plan.feasible) return run_trial(spec, seed, obs);

  const SeverityModel severity{spec.resilience.severity_weights};
  Simulation sim;
  ExecutionResult final_result;
  bool finished = false;

  // The trial's two seed streams, keyed as in core/trial_engine.cpp.
  ResilientAppRuntime runtime{
      sim, spec.plan, derive_seed(seed, 0x72756e74696dULL), [&](const ExecutionResult& r) {
        final_result = r;
        finished = true;
        sim.request_stop();
      }};
  runtime.set_observer(obs);

  AppFailureProcess failures{
      sim,
      spec.plan.failure_rate,
      severity,
      spec.failure_distribution,
      Pcg32{derive_seed(seed, 0x6661696c7321ULL)},
      [&runtime](const Failure& f) { runtime.on_failure(f); }};

  failures.start();
  runtime.start();
  sim.run();

  EXPECT_TRUE(finished) << "plan trial ended without a completion callback";
  record_trial_metrics(obs, final_result, sim.events_processed());
  return final_result;
}

/// \p work as the explicit plan the direct engine executes: a planner
/// config is planned here (make_plan), a PlanTrialSpec is used as is.
PlanTrialSpec as_plan_spec(const TrialWork& work) {
  if (const auto* spec = std::get_if<PlanTrialSpec>(&work)) return *spec;
  const auto& config = std::get<SingleAppTrialConfig>(work);
  return PlanTrialSpec{
      make_plan(config.technique, config.app, config.machine, config.resilience),
      config.resilience, config.failure_distribution};
}

struct BatchRun {
  std::vector<ExecutionResult> results;
  std::string metrics_text;
  std::string trace_json;
};

/// Observers for \p trials trials when \p observed: metrics on every
/// trial, a trace on trial 0 (what a study run with --metrics --trace
/// collects); none otherwise, the shape of every study run without them.
std::vector<obs::TrialObs> make_observers(std::uint32_t trials, bool observed) {
  std::vector<obs::TrialObs> observers;
  if (!observed) return observers;
  observers.resize(trials);
  for (obs::TrialObs& o : observers) o.enable_metrics();
  observers.front().enable_trace();
  return observers;
}

/// Merge observed trials in spec order (the study reduction) and render
/// trial 0's trace.
void collect(BatchRun& run, std::vector<obs::TrialObs>& observers) {
  if (observers.empty()) return;
  obs::MetricSet merged;
  for (const obs::TrialObs& o : observers) merged.merge(*o.metrics());
  run.metrics_text = merged.to_table().to_text();
  obs::TraceLog log;
  log.add_track("trial 0", std::move(*observers.front().trace()));
  run.trace_json = log.to_json();
}

std::vector<TrialSpec> batch_specs(const TrialWork& work, std::uint32_t trials) {
  std::vector<TrialSpec> specs;
  specs.reserve(trials);
  for (std::uint32_t t = 0; t < trials; ++t) specs.push_back(TrialSpec{work, {t}});
  return specs;
}

/// The reference batch: every trial through run_event_trial, serially,
/// under the executor's seed-derivation contract.
BatchRun run_reference_batch(const TrialWork& work, std::uint64_t seed,
                             std::uint32_t trials, bool observed = true) {
  const PlanTrialSpec spec = as_plan_spec(work);
  std::vector<obs::TrialObs> observers = make_observers(trials, observed);
  BatchRun run;
  for (const TrialSpec& trial : batch_specs(work, trials)) {
    const std::size_t i = run.results.size();
    run.results.push_back(run_event_trial(spec, trial.derived_seed(seed),
                                          observed ? &observers[i] : nullptr));
  }
  collect(run, observers);
  return run;
}

/// One batch on the direct engine through TrialExecutor at \p threads.
BatchRun run_direct_batch(unsigned threads, const TrialWork& work, std::uint64_t seed,
                          std::uint32_t trials, bool observed = true) {
  const std::vector<TrialSpec> specs = batch_specs(work, trials);
  const TrialExecutor executor{threads};
  std::vector<obs::TrialObs> observers = make_observers(trials, observed);
  BatchRun run;
  run.results = observed ? executor.run_batch(seed, specs, observers)
                         : executor.run_batch(seed, specs);
  collect(run, observers);
  return run;
}

SingleAppTrialConfig diff_cell(const std::string& app, TechniqueKind technique,
                               double mtbf_years, std::uint32_t nodes) {
  SingleAppTrialConfig config;
  config.app = AppSpec::from_baseline(app_type_by_name(app), nodes,
                                      Duration::hours(2.0));
  config.technique = technique;
  config.machine = MachineSpec::exascale();
  config.resilience.node_mtbf = Duration::years(mtbf_years);
  return config;
}

/// The direct engine against the queued-callback oracle across worker counts:
/// the differential core of the harness. The serial oracle, with metrics
/// and a trace of trial 0, is the reference; the direct engine at 1 and 4
/// threads must reproduce it exactly, metrics and trace included, and must
/// reproduce its results without observers too.
void expect_engine_invariant(const TrialWork& work, const std::string& label,
                             std::uint64_t seed, std::uint32_t trials) {
  const BatchRun reference = run_reference_batch(work, seed, trials);
  ASSERT_EQ(reference.results.size(), trials) << label;
  ASSERT_FALSE(reference.trace_json.empty()) << label;
  const auto expect_results = [&](const BatchRun& run, const std::string& tag) {
    ASSERT_EQ(run.results.size(), reference.results.size()) << tag;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      expect_identical(reference.results[i], run.results[i],
                       tag + "/trial" + std::to_string(i));
    }
  };
  for (const unsigned threads : {1U, 4U}) {
    const std::string tag = label + "/direct/t" + std::to_string(threads);
    expect_results(run_direct_batch(threads, work, seed, trials, /*observed=*/false),
                   tag + "/unobserved");
    const BatchRun run = run_direct_batch(threads, work, seed, trials);
    expect_results(run, tag);
    // Queue-shape counters legitimately differ between the two; the
    // study-facing metrics (sim_events, outcome counters, phase gauges)
    // must not. MetricSet::to_table covers exactly those.
    EXPECT_EQ(reference.metrics_text, run.metrics_text) << tag;
    EXPECT_EQ(reference.trace_json, run.trace_json) << tag;
  }
}

TEST(SurrogateDiff, EnginesAgreeFast) {
  expect_engine_invariant(diff_cell("C64", TechniqueKind::kMultilevel, 1.0, 4000),
                          "C64/ml/failure-heavy", 20260808, tsan_build() ? 4 : 12);
  expect_engine_invariant(
      diff_cell("A32", TechniqueKind::kParallelRecovery, 10.0, 1200),
      "A32/pr", 7, tsan_build() ? 4 : 12);
}

/// One cell per plan knob the study catalog sets (the adaptive-interval,
/// semi-blocking, compression, recovery-parallelism, failure-distribution
/// and checkpoint-interval studies). \p value in (0, 1) sets each knob:
/// directly for rates, ratios and the Weibull shape, scaled for the
/// parallelism and the quantum multiplier. Failure-heavy MTBFs, so each
/// knob's code path runs many times per trial.
struct KnobCell {
  std::string label;
  TrialWork work;
};

/// A knob cell's base: 30k nodes at a 1-year node MTBF over an 8-hour
/// baseline, about 27 failures per trial.
SingleAppTrialConfig knob_base(const std::string& app, TechniqueKind technique) {
  SingleAppTrialConfig config = diff_cell(app, technique, 1.0, 30000);
  config.app = AppSpec::from_baseline(config.app.type, 30000, Duration::hours(8.0));
  return config;
}

std::vector<KnobCell> knob_cells(double value) {
  std::vector<KnobCell> cells;
  SingleAppTrialConfig adaptive = knob_base("B32", TechniqueKind::kCheckpointRestart);
  adaptive.resilience.adaptive_interval = true;
  cells.push_back({"adaptive_interval", adaptive});

  SingleAppTrialConfig semi = knob_base("C64", TechniqueKind::kSemiBlockingCheckpoint);
  semi.resilience.semi_blocking_work_rate = value;
  cells.push_back({"semi_blocking_work_rate", semi});

  SingleAppTrialConfig compressed = knob_base("D64", TechniqueKind::kMultilevel);
  compressed.resilience.checkpoint_compression = value;
  cells.push_back({"checkpoint_compression", compressed});

  SingleAppTrialConfig parallel = knob_base("A32", TechniqueKind::kParallelRecovery);
  parallel.resilience.recovery_parallelism = 16.0 * value;
  cells.push_back({"recovery_parallelism", parallel});

  SingleAppTrialConfig weibull = knob_base("C64", TechniqueKind::kMultilevel);
  weibull.failure_distribution = FailureDistribution::weibull(value);
  cells.push_back({"weibull", weibull});

  // A hand-modified plan, as the interval and adaptive ablations build
  // them: an off-optimum quantum, an adaptive flag the planner did not
  // set, and a failure rate the planner did not assume.
  SingleAppTrialConfig base = knob_base("B32", TechniqueKind::kCheckpointRestart);
  base.resilience.node_mtbf = Duration::years(10.0);
  PlanTrialSpec raw = as_plan_spec(base);
  raw.plan.checkpoint_quantum = raw.plan.checkpoint_quantum * (2.0 * value);
  raw.plan.adaptive_interval = true;
  raw.plan.failure_rate =
      Rate::one_per(Duration::years(1.0)) * static_cast<double>(base.app.nodes);
  cells.push_back({"plan_trial_spec", raw});
  return cells;
}

TEST(SurrogateDiff, EnginesAgreeOnPlanKnobs) {
  const std::uint32_t trials = tsan_build() ? 3 : 6;
  std::uint64_t seed = 41;
  for (const KnobCell& cell : knob_cells(0.75)) {
    expect_engine_invariant(cell.work, cell.label, ++seed, trials);
    // A knob is only exercised if its trials complete through failures.
    std::uint64_t failures = 0;
    for (const ExecutionResult& r :
         run_direct_batch(1, cell.work, seed, trials, /*observed=*/false).results) {
      EXPECT_TRUE(r.completed) << cell.label;
      failures += r.failures_seen;
    }
    EXPECT_GT(failures, 10U * trials) << cell.label;
  }
}

TEST(SurrogateDiff, EnginesAgreeOnPlanKnobsFullMatrix) {
  if (!full_matrix()) GTEST_SKIP() << "set XRES_SMOKE_ALL=1 for the full matrix";
  std::uint64_t seed = 4100;
  for (const double value : {0.25, 0.5, 0.9}) {
    for (const KnobCell& cell : knob_cells(value)) {
      expect_engine_invariant(cell.work, cell.label + "/" + std::to_string(value), ++seed,
                              8);
    }
  }
}

/// The engine-level perf counters a run reports (perf.json, the ledger's
/// events_per_s) count every executed event and every watchdog poll, so
/// the same batch must read the same on the direct engine as on the
/// oracle, whether the direct engine dispatched a boundary through the
/// calendar or inside a chain.
TEST(SurrogateDiff, EnginesExecuteAndPollAlike) {
  // A 100-hour baseline: several thousand events, so several watchdog
  // polls, per trial.
  SingleAppTrialConfig config = diff_cell("C64", TechniqueKind::kMultilevel, 1.0, 30000);
  config.app = AppSpec::from_baseline(config.app.type, 30000, Duration::hours(100.0));
  const std::uint32_t trials = tsan_build() ? 4 : 12;
  for (const bool observed : {false, true}) {
    const auto counters = [&](const auto& run_batch) {
      const obs::PerfCounters before = obs::perf_snapshot();
      EXPECT_EQ(run_batch().results.size(), trials);
      return obs::perf_delta(before);
    };
    const obs::PerfCounters event = counters(
        [&] { return run_reference_batch(config, 20260808, trials, observed); });
    const obs::PerfCounters direct = counters(
        [&] { return run_direct_batch(2, config, 20260808, trials, observed); });
    const std::string tag = observed ? "observed" : "unobserved";
    // More than one watchdog poll per trial: the cadence itself is compared.
    EXPECT_GT(event.events_executed(), 4096U * trials) << tag;
    EXPECT_GT(event.watchdog_polls, trials) << tag;
    EXPECT_EQ(event.events_executed(), direct.events_executed()) << tag;
    EXPECT_EQ(event.watchdog_polls, direct.watchdog_polls) << tag;
    // The direct engine queues no callback; the oracle does.
    EXPECT_EQ(direct.events_popped, 0U) << tag;
    EXPECT_GT(event.events_popped, 0U) << tag;
    // Every simulated trial counts once, on the direct engine only.
    EXPECT_EQ(event.batched_trials, 0U) << tag;
    EXPECT_EQ(direct.batched_trials, trials) << tag;
  }
}

TEST(SurrogateDiff, EnginesAgreeFullMatrix) {
  if (!full_matrix()) GTEST_SKIP() << "set XRES_SMOKE_ALL=1 for the full matrix";
  std::uint64_t seed = 1;
  for (const char* app : {"A32", "C64", "D64"}) {
    for (const TechniqueKind technique : evaluated_techniques()) {
      for (const double mtbf : {0.5, 10.0}) {
        expect_engine_invariant(
            diff_cell(app, technique, mtbf, 3000),
            std::string{app} + "/" + to_string(technique) + "/" + std::to_string(mtbf),
            ++seed, 8);
      }
    }
  }
}

EfficiencyStudyConfig small_study(std::uint64_t seed) {
  EfficiencyStudyConfig config;
  config.app_type = app_type_by_name("C64");
  config.baseline = Duration::hours(3.0);
  config.size_fractions = {0.02, 0.05, 0.10, 0.25, 0.50};
  config.trials = tsan_build() ? 3 : 6;
  config.seed = seed;
  config.threads = 2;
  return config;
}

/// Surrogate-vs-simulated differential: anchors bit-identical, surrogate
/// cells within their reported bound.
TEST(SurrogateDiff, AnalyticWithinBoundOfSimulation) {
  const EfficiencyStudyConfig config = small_study(20260808);

  EfficiencyStudyConfig sim = config;
  sim.surrogate = SurrogateMode::kSim;
  const EfficiencyStudyResult simulated = run_efficiency_study(sim);

  EfficiencyStudyConfig sur = config;
  sur.surrogate = SurrogateMode::kAnalytic;
  const EfficiencyStudyResult answered = run_efficiency_study(sur);

  ASSERT_EQ(answered.surrogate_cells.size(), config.size_fractions.size());
  EXPECT_TRUE(simulated.surrogate_cells.empty());
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const std::string label = "cell s" + std::to_string(si) + ".t" + std::to_string(ti);
      const SurrogateCell& cell = answered.surrogate_cells[si][ti];
      const Summary& sim_cell = simulated.efficiency[si][ti];
      const Summary& sur_cell = answered.efficiency[si][ti];
      if (cell.anchor) {
        // Anchors re-use the simulated path's exact seeds: bit-identical.
        EXPECT_EQ(sim_cell.mean, sur_cell.mean) << label;
        EXPECT_EQ(sim_cell.stddev, sur_cell.stddev) << label;
        EXPECT_EQ(sim_cell.count, sur_cell.count) << label;
        EXPECT_EQ(simulated.mean_failures[si][ti], answered.mean_failures[si][ti])
            << label;
      } else {
        EXPECT_FALSE(cell.simulated) << label;
        EXPECT_EQ(sur_cell.count, 0U) << label;
        EXPECT_LE(std::abs(cell.predicted - sim_cell.mean), cell.bound) << label
            << " predicted=" << cell.predicted << " sim=" << sim_cell.mean
            << " bound=" << cell.bound;
      }
    }
  }
}

/// Auto mode: every cell is either simulated (anchor or bound-exceeded
/// fallback, bit-identical to the simulated study) or within bound.
TEST(SurrogateDiff, AutoFallsBackToSimulationWhenBoundExceeded) {
  // A fresh seed so the in-process anchor memo from other tests cannot
  // serve these cells.
  const EfficiencyStudyConfig config = small_study(977);

  EfficiencyStudyConfig sim = config;
  sim.surrogate = SurrogateMode::kSim;
  const EfficiencyStudyResult simulated = run_efficiency_study(sim);

  EfficiencyStudyConfig automatic = config;
  automatic.surrogate = SurrogateMode::kAuto;
  const EfficiencyStudyResult answered = run_efficiency_study(automatic);

  ASSERT_EQ(answered.surrogate_cells.size(), config.size_fractions.size());
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      const std::string label = "cell s" + std::to_string(si) + ".t" + std::to_string(ti);
      const SurrogateCell& cell = answered.surrogate_cells[si][ti];
      const Summary& sim_cell = simulated.efficiency[si][ti];
      const Summary& ans_cell = answered.efficiency[si][ti];
      if (cell.simulated) {
        EXPECT_EQ(sim_cell.mean, ans_cell.mean) << label;
        EXPECT_EQ(sim_cell.stddev, ans_cell.stddev) << label;
      } else {
        EXPECT_LE(cell.bound, kAutoBoundThreshold) << label;
        EXPECT_LE(std::abs(cell.predicted - sim_cell.mean), cell.bound) << label;
      }
    }
  }
}

/// Anchor memoization: re-running the same surrogate study in-process
/// answers anchors from the memo (count 0 — not re-simulated) with the
/// identical means.
TEST(SurrogateDiff, AnchorsAreMemoized) {
  EfficiencyStudyConfig config = small_study(31337);
  config.surrogate = SurrogateMode::kAnalytic;
  const EfficiencyStudyResult first = run_efficiency_study(config);
  const EfficiencyStudyResult second = run_efficiency_study(config);
  for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
    for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
      EXPECT_EQ(first.efficiency[si][ti].mean, second.efficiency[si][ti].mean);
      if (first.surrogate_cells[si][ti].anchor) {
        EXPECT_EQ(first.efficiency[si][ti].count, config.trials);
        EXPECT_EQ(second.efficiency[si][ti].count, 0U);  // memo hit
      }
    }
  }
}

/// Property test (paper Eqs. 1–8): across randomized configurations the
/// surrogate's prediction for the interior size must sit within its
/// reported bound of the simulated mean efficiency for the same seeds.
TEST(SurrogateProperty, PredictionWithinReportedBound) {
  const int configurations = tsan_build() ? 25 : (full_matrix() ? 200 : 60);
  Pcg32 rng{0x5052455354ULL};
  int surrogate_cells_checked = 0;
  for (int i = 0; i < configurations; ++i) {
    EfficiencyStudyConfig config;
    config.app_type = all_app_types()[rng.next_below(8)];
    config.resilience.node_mtbf = Duration::years(rng.uniform(2.0, 30.0));
    // Whole minutes: baselines must be an integral number of time steps.
    config.baseline = Duration::minutes(static_cast<double>(60 + rng.next_below(121)));
    config.trials = 6;
    config.seed = 1000 + static_cast<std::uint64_t>(i);
    config.threads = 2;
    config.techniques = {evaluated_techniques()[rng.next_below(5)]};
    const double lo = rng.uniform(0.01, 0.25);
    const double mid = rng.uniform(0.26, 0.55);
    const double hi = rng.uniform(0.56, 1.0);
    config.size_fractions = {lo, mid, hi};

    EfficiencyStudyConfig sim = config;
    sim.surrogate = SurrogateMode::kSim;
    const EfficiencyStudyResult simulated = run_efficiency_study(sim);

    EfficiencyStudyConfig sur = config;
    sur.surrogate = SurrogateMode::kAnalytic;
    const EfficiencyStudyResult answered = run_efficiency_study(sur);

    const std::string label = "config " + std::to_string(i) + " (" +
                              config.app_type.name + ", " +
                              to_string(config.techniques[0]) + ")";
    for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
      const SurrogateCell& cell = answered.surrogate_cells[si][0];
      if (cell.simulated) {
        EXPECT_EQ(simulated.efficiency[si][0].mean, answered.efficiency[si][0].mean)
            << label;
        continue;
      }
      ++surrogate_cells_checked;
      EXPECT_LE(std::abs(cell.predicted - simulated.efficiency[si][0].mean), cell.bound)
          << label << " si=" << si << " predicted=" << cell.predicted
          << " sim=" << simulated.efficiency[si][0].mean << " bound=" << cell.bound;
    }
  }
  EXPECT_GT(surrogate_cells_checked, 0);
}

}  // namespace
}  // namespace xres
