#include "core/trial_engine.hpp"

#include <optional>
#include <utility>

#include "obs/perf.hpp"
#include "resilience/planner.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

void record_trial_metrics(obs::TrialObs* obs, const ExecutionResult& r,
                          std::uint64_t sim_events) {
  if (obs == nullptr || obs->metrics() == nullptr) return;
  record_result_metrics(obs, r);
  const obs::BuiltinMetrics& m = obs::builtin_metrics();
  obs->count(m.trials_run);
  obs->count(m.sim_events, sim_events);
  obs->observe(m.trial_events, static_cast<double>(sim_events));
  obs->observe(m.trial_wall_hours, r.wall_time.to_seconds() / 3600.0);
}

const SeverityModel& cached_severity_model(const std::vector<double>& weights) {
  struct Cache {
    std::vector<double> weights;
    std::optional<SeverityModel> model;
  };
  thread_local Cache cache;
  if (!cache.model.has_value() || cache.weights != weights) {
    cache.model.emplace(weights);
    cache.weights = weights;
  }
  return *cache.model;
}

namespace {

bool same_config(const SingleAppTrialConfig& a, const SingleAppTrialConfig& b) {
  // The plan-relevant fields only: failure_distribution is not a make_plan
  // input, so it deliberately does not participate in the cache key.
  const AppType& at = a.app.type;
  const AppType& bt = b.app.type;
  return a.technique == b.technique && at.name == bt.name &&
         at.comm_fraction == bt.comm_fraction &&
         at.memory_per_node == bt.memory_per_node && a.app.nodes == b.app.nodes &&
         a.app.time_steps == b.app.time_steps &&
         a.machine.node.tflops == b.machine.node.tflops &&
         a.machine.node.cores == b.machine.node.cores &&
         a.machine.node.memory == b.machine.node.memory &&
         a.machine.node.memory_bandwidth == b.machine.node.memory_bandwidth &&
         a.machine.network.latency == b.machine.network.latency &&
         a.machine.network.bandwidth == b.machine.network.bandwidth &&
         a.machine.network.switch_connections == b.machine.network.switch_connections &&
         a.machine.node_count == b.machine.node_count &&
         a.resilience.node_mtbf == b.resilience.node_mtbf &&
         a.resilience.severity_weights == b.resilience.severity_weights &&
         a.resilience.comm_slowdown_per_tc == b.resilience.comm_slowdown_per_tc &&
         a.resilience.recovery_parallelism == b.resilience.recovery_parallelism &&
         a.resilience.partial_redundancy == b.resilience.partial_redundancy &&
         a.resilience.full_redundancy == b.resilience.full_redundancy &&
         a.resilience.max_slowdown == b.resilience.max_slowdown &&
         a.resilience.max_nesting == b.resilience.max_nesting &&
         a.resilience.adaptive_interval == b.resilience.adaptive_interval &&
         a.resilience.semi_blocking_work_rate == b.resilience.semi_blocking_work_rate &&
         a.resilience.checkpoint_compression == b.resilience.checkpoint_compression;
}

}  // namespace

const ExecutionPlan& cached_plan(const SingleAppTrialConfig& config) {
  struct Cache {
    bool valid{false};
    SingleAppTrialConfig key;
    ExecutionPlan plan;
  };
  thread_local Cache cache;
  if (!cache.valid || !same_config(cache.key, config)) {
    cache.plan =
        make_plan(config.technique, config.app, config.machine, config.resilience);
    cache.key = config;
    cache.valid = true;
  }
  return cache.plan;
}

namespace {

/// The direct engine's failure stream: AppFailureProcess's draws in its
/// exact RNG order (the first gap at start(), then per delivery a severity
/// sample followed by the next gap), published into a phase-calendar slot
/// instead of the event queue. Each publish draws its insertion seq where
/// AppFailureProcess's schedule_after would, so the trial's total event
/// order — and every observable — matches the event-queue oracle
/// (core/trial_engine.hpp), while the trial never touches the event heap.
class CalendarFailureStream final : private CalendarClient {
 public:
  CalendarFailureStream(Simulation& sim, ResilientAppRuntime& runtime,
                        const SeverityModel& severity, const FailureDistribution& dist,
                        Rate rate, Pcg32 rng)
      : sim_{sim},
        runtime_{runtime},
        severity_{severity},
        dist_{dist},
        rate_{rate},
        rng_{rng},
        slot_{sim.open_slot(*this, 0)} {}

  CalendarFailureStream(const CalendarFailureStream&) = delete;
  CalendarFailureStream& operator=(const CalendarFailureStream&) = delete;
  ~CalendarFailureStream() { sim_.close_slot(slot_); }

  /// AppFailureProcess::start(): publish the first failure.
  void start() { publish_next(); }

  [[nodiscard]] CalendarSlot slot() const { return slot_; }

 private:
  void publish_next() {
    const Duration gap = dist_.draw(rng_, rate_);
    if (!gap.is_finite()) return;  // zero rate: no failures ever
    sim_.publish_after(slot_, gap);
  }

  void on_calendar(std::uint32_t) override {
    const Failure failure{sim_.now(), severity_.sample(rng_)};
    publish_next();
    runtime_.on_failure(failure);
  }

  Simulation& sim_;
  ResilientAppRuntime& runtime_;
  const SeverityModel& severity_;
  const FailureDistribution& dist_;
  Rate rate_;
  Pcg32 rng_;
  CalendarSlot slot_;
};

}  // namespace

void run_direct(Simulation& sim, ResilientAppRuntime& runtime, CalendarSlot failure) {
  const CalendarSlot phase = runtime.phase_slot();
  const CalendarSlot timeout = runtime.timeout_slot();
  std::uint64_t executed = 0;
  // Simulation::run's watchdog cadence: poll before every 4096th event.
  const auto count_event = [&] {
    if ((executed++ & 0xFFFU) == 0) {
      sim.count_watchdog_poll();
      deadline_poll();
    }
  };
  while (!sim.stop_requested()) {
    // The earlier of the failure and the wall-time cap. Neither slot
    // changes while phase boundaries fire (the failure slot is republished
    // only when it fires; the cap is retracted only when the run ends,
    // which requests the stop), so it bounds a chain. A seq renumbering
    // rewrites both entries in place and keeps their order, so the same
    // slot stays the interrupt and \c bound stays current.
    const CalendarSlot interrupt =
        PhaseCalendar::earlier(sim.slot_entry(timeout), sim.slot_entry(failure)) ? timeout
                                                                                 : failure;
    const PhaseCalendar::Entry& bound = sim.slot_entry(interrupt);
    if (PhaseCalendar::earlier(sim.slot_entry(phase), bound)) {
      if (runtime.can_chain()) {
        executed = runtime.run_chain(bound, executed);
      } else {
        count_event();
        sim.fire_slot(phase, runtime);
      }
    } else if (bound.published()) {
      count_event();
      sim.fire_slot(interrupt);
    } else {
      break;  // nothing pending
    }
  }
}

ExecutionResult run_plan_trial_direct(const ExecutionPlan& plan,
                                      const SeverityModel& severity,
                                      const FailureDistribution& dist,
                                      std::uint64_t seed, obs::TrialObs* obs) {
  Simulation sim;
  ExecutionResult final_result;
  bool finished = false;

  ResilientAppRuntime runtime{
      sim, plan, derive_seed(seed, 0x72756e74696dULL), [&](const ExecutionResult& r) {
        final_result = r;
        finished = true;
        sim.request_stop();
      }};
  runtime.set_observer(obs);

  CalendarFailureStream failures{sim, runtime, severity, dist, plan.failure_rate,
                                 Pcg32{derive_seed(seed, 0x6661696c7321ULL)}};
  failures.start();
  runtime.start();
  run_direct(sim, runtime, failures.slot());

  XRES_CHECK(finished, "plan trial ended without a completion callback");
  obs::perf_add_batched_trials(1);
  record_trial_metrics(obs, final_result, sim.events_processed());
  return final_result;
}

}  // namespace xres
