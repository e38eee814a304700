#include "runtime/app_runtime.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/trial_obs.hpp"
#include "resilience/interval.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"

namespace xres {

ResilientAppRuntime::ResilientAppRuntime(Simulation& sim, ExecutionPlan plan,
                                         std::uint64_t seed,
                                         CompletionCallback on_complete)
    : sim_{sim},
      plan_{std::move(plan)},
      rng_{derive_seed(seed, 0x617070727421ULL)},
      on_complete_{std::move(on_complete)} {
  plan_.validate();
  XRES_CHECK(static_cast<bool>(on_complete_), "completion callback must be non-empty");
  active_normal_nodes_ = static_cast<double>(plan_.physical_nodes);
  active_recovery_nodes_ = std::min(1.0 + plan_.recovery_parallelism,
                                    static_cast<double>(plan_.app.nodes));
  phase_slot_ = sim_.open_slot(*this, kPhaseSlot);
  timeout_slot_ = sim_.open_slot(*this, kTimeoutSlot);
}

ResilientAppRuntime::~ResilientAppRuntime() { release_calendar(); }

void ResilientAppRuntime::release_calendar() {
  cancel_pending();
  if (!slots_open_) return;
  slots_open_ = false;
  sim_.close_slot(phase_slot_);
  sim_.close_slot(timeout_slot_);
}

const char* ResilientAppRuntime::phase_name() const {
  switch (phase_) {
    case Phase::kIdle: return "idle";
    case Phase::kWorking: return "working";
    case Phase::kCheckpointing: return "checkpointing";
    case Phase::kRestarting: return "restarting";
    case Phase::kRecovering: return "recovering";
    case Phase::kDone: return "done";
    case Phase::kAborted: return "aborted";
  }
  return "?";
}

void ResilientAppRuntime::start() {
  XRES_CHECK(phase_ == Phase::kIdle, "runtime already started");
  XRES_CHECK(plan_.feasible, "cannot execute an infeasible plan");
  start_time_ = sim_.now();
  phase_start_ = start_time_;
  result_.baseline = plan_.baseline;

  saved_.assign(plan_.levels.size(), Duration::zero());
  quantum_ = plan_.checkpoint_quantum;
  next_checkpoint_at_ = plan_.levels.empty() ? Duration::infinity() : quantum_;

  // Tabulate the checkpoint-level odometer: with L levels the pattern of
  // level_index_for_checkpoint(k) repeats with the product of the nesting
  // counts as its period, so one small table replaces a divide-per-level
  // scan on every checkpoint (the hottest plan query in a trial).
  level_cycle_.clear();
  level_cycle_pos_ = 0;
  if (!plan_.levels.empty()) {
    std::uint64_t cycle = 1;
    for (std::size_t i = 0; i + 1 < plan_.levels.size(); ++i) {
      cycle *= static_cast<std::uint64_t>(plan_.nesting[i]);
      if (cycle > 4096) break;
    }
    if (cycle <= 4096) {
      // Walk the odometer incrementally (digit i counts to nesting[i] and
      // carries) instead of dividing per entry; the carried-into digit is
      // exactly level_index_for_checkpoint's answer.
      level_cycle_.resize(cycle);
      std::vector<std::uint32_t> digits(plan_.levels.size() - 1, 0);
      for (std::uint64_t r = 0; r < cycle; ++r) {
        std::size_t carried = 0;
        while (carried < digits.size() &&
               ++digits[carried] == static_cast<std::uint32_t>(plan_.nesting[carried])) {
          digits[carried] = 0;
          ++carried;
        }
        level_cycle_[r] = static_cast<std::uint32_t>(carried);
      }
    }
  }

  if (plan_.replication_degree > 1.0) {
    const std::uint32_t duplicated = plan_.physical_nodes - plan_.app.nodes;
    XRES_CHECK(duplicated <= plan_.app.nodes,
               "replication degree above 2 is not modeled");
    dup_healthy_ = duplicated;
    dup_degraded_ = 0;
    singles_ = plan_.app.nodes - duplicated;
  }

  if (plan_.max_wall_time.is_finite()) {
    sim_.publish_after(timeout_slot_, plan_.max_wall_time);
  }
  enter_working();
}

void ResilientAppRuntime::set_pfs_transfer_service(PfsDeviceTransferService* service) {
  XRES_CHECK(phase_ == Phase::kIdle, "transfer service must be set before start");
  pfs_service_ = service;
}

void ResilientAppRuntime::set_observer(obs::TrialObs* obs) {
  XRES_CHECK(phase_ == Phase::kIdle, "observer must be set before start");
  obs_ = obs;
}

void ResilientAppRuntime::on_calendar(std::uint32_t tag) {
  if (tag == kTimeoutSlot) {
    abort_on_timeout();
  } else {
    on_phase_done();
  }
}

void ResilientAppRuntime::on_phase_done() {
  switch (phase_) {
    case Phase::kWorking: on_segment_done(); break;
    case Phase::kCheckpointing: on_checkpoint_done(); break;
    case Phase::kRestarting: on_restart_done(); break;
    case Phase::kRecovering: on_recovery_done(); break;
    case Phase::kIdle:
    case Phase::kDone:
    case Phase::kAborted:
      XRES_CHECK(false, "phase completion outside an executing phase");
  }
}

void ResilientAppRuntime::cancel_pending() {
  if (transfer_pending_) {
    pfs_service_->cancel(pending_transfer_);
    transfer_pending_ = false;
  } else {
    sim_.retract(phase_slot_);
  }
}

void ResilientAppRuntime::schedule_phase(Duration nominal, bool shared_pfs) {
  if (shared_pfs && pfs_service_ != nullptr) {
    begin_pfs_transfer(nominal);
  } else {
    sim_.publish_after(phase_slot_, nominal);
  }
}

void ResilientAppRuntime::begin_pfs_transfer(Duration nominal) {
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().pfs_phases);
  // phase_level_ is always current here: shared_pfs phases are entered
  // only from enter_checkpointing / enter_restarting, which set it.
  TransferRequest request;
  request.nominal = nominal;
  request.bytes = plan_.levels[phase_level_].pfs_bytes;
  request.rate_cap = plan_.levels[phase_level_].pfs_rate_cap;
  pending_transfer_ = pfs_service_->begin(request, [this] {
    transfer_pending_ = false;
    on_phase_done();
  });
  transfer_pending_ = true;
}

double ResilientAppRuntime::active_nodes() const {
  // During recovery only the restarted node plus its recovery helpers
  // compute; the rest of the allocation idles (Section IV-D). Both values
  // are precomputed at start().
  if (phase_ == Phase::kRecovering) return active_recovery_nodes_;
  return active_normal_nodes_;
}

void ResilientAppRuntime::enable_timeline() {
  XRES_CHECK(phase_ == Phase::kIdle, "enable_timeline must precede start");
  timeline_.emplace();
}

void ResilientAppRuntime::accrue(Duration elapsed) {
  switch (phase_) {
    case Phase::kWorking:
      accrue_known(elapsed, result_.time_working, SpanKind::kWork,
                   active_normal_nodes_);
      return;
    case Phase::kCheckpointing:
      accrue_known(elapsed, result_.time_checkpointing, SpanKind::kCheckpoint,
                   active_normal_nodes_);
      return;
    case Phase::kRestarting:
      accrue_known(elapsed, result_.time_restarting, SpanKind::kRestart,
                   active_normal_nodes_);
      return;
    case Phase::kRecovering:
      accrue_known(elapsed, result_.time_recovering, SpanKind::kRecovery,
                   active_recovery_nodes_);
      return;
    case Phase::kIdle:
    case Phase::kDone:
    case Phase::kAborted:
      XRES_CHECK(elapsed >= Duration::zero(), "negative phase time");
      result_.node_seconds += active_normal_nodes_ * elapsed.to_seconds();
      return;
  }
}

[[gnu::always_inline]] inline void ResilientAppRuntime::accrue_known(Duration elapsed,
                                                                     Duration& bucket,
                                                                     SpanKind span,
                                                                     double nodes) {
  XRES_CHECK(elapsed >= Duration::zero(), "negative phase time");
  bucket += elapsed;
  result_.node_seconds += nodes * elapsed.to_seconds();
  if (timeline_.has_value()) {
    timeline_->add(span, phase_start_, elapsed);
  }
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    accrue_trace_span(span, elapsed);
  }
}

void ResilientAppRuntime::accrue_trace_span(SpanKind span, Duration elapsed) {
  obs::TraceBuffer& trace = *obs_->trace();
  switch (span) {
    case SpanKind::kWork:
      trace.span("work", "phase", phase_start_, elapsed);
      break;
    case SpanKind::kCheckpoint:
      trace.span("checkpoint L" + std::to_string(phase_level_), "phase", phase_start_,
                 elapsed,
                 {obs::trace_arg("level", static_cast<int>(phase_level_)),
                  obs::trace_arg("pfs", phase_pfs_)});
      break;
    case SpanKind::kRestart:
      trace.span("restart", "phase", phase_start_, elapsed,
                 {obs::trace_arg("level", static_cast<int>(phase_level_)),
                  obs::trace_arg("pfs", phase_pfs_)});
      break;
    case SpanKind::kRecovery:
      trace.span("recovery", "phase", phase_start_, elapsed,
                 {obs::trace_arg("lost_work_s", recovery_lost_.to_seconds())});
      break;
  }
}

// The boundary arithmetic below (and accrue_known) is forced inline so
// run_chain() compiles to one loop with no calls per boundary; the
// calendar-dispatched handlers get their own inlined copies of the same
// code.

[[gnu::always_inline]] inline bool ResilientAppRuntime::begin_working(Duration& length) {
  if (progress_ >= plan_.work_target) {
    complete();
    return false;
  }
  phase_ = Phase::kWorking;
  phase_start_ = sim_.now();
  phase_pfs_ = false;
  const Duration target = std::min(next_checkpoint_at_, plan_.work_target);
  length = target - progress_;
  XRES_CHECK(length > Duration::zero(), "empty work segment");
  segment_target_ = target;
  return true;
}

void ResilientAppRuntime::enter_working() {
  Duration length;
  if (begin_working(length)) schedule_phase(length, /*shared_pfs=*/false);
}

[[gnu::always_inline]] inline bool ResilientAppRuntime::finish_segment() {
  accrue_known(sim_.now() - phase_start_, result_.time_working, SpanKind::kWork,
               active_normal_nodes_);
  progress_ = segment_target_;
  if (progress_ >= plan_.work_target) {
    complete();
    return false;
  }
  return true;
}

void ResilientAppRuntime::on_segment_done() {
  if (finish_segment()) enter_checkpointing();
}

[[gnu::always_inline]] inline Duration ResilientAppRuntime::begin_checkpointing() {
  phase_ = Phase::kCheckpointing;
  phase_start_ = sim_.now();
  // Semi-blocking checkpoints snapshot the state at phase entry; work done
  // concurrently is not covered by the in-flight image.
  checkpoint_snapshot_ = progress_;
  const std::size_t idx =
      level_cycle_.empty()
          ? plan_.level_index_for_checkpoint(checkpoint_counter_ + 1)
          : level_cycle_[level_cycle_pos_];
  const CheckpointLevelSpec& level = plan_.levels[idx];
  phase_level_ = idx;
  phase_pfs_ = level.uses_shared_pfs;
  return level.save_cost;
}

void ResilientAppRuntime::enter_checkpointing() {
  const Duration save_cost = begin_checkpointing();
  schedule_phase(save_cost, phase_pfs_);
}

[[gnu::always_inline]] inline void ResilientAppRuntime::finish_checkpoint() {
  const std::size_t level_index = phase_level_;
  const Duration elapsed = sim_.now() - phase_start_;
  accrue_known(elapsed, result_.time_checkpointing, SpanKind::kCheckpoint,
               active_normal_nodes_);
  ++checkpoint_counter_;
  if (!level_cycle_.empty() && ++level_cycle_pos_ == level_cycle_.size()) {
    level_cycle_pos_ = 0;
  }
  ++result_.checkpoints_completed;
  if (obs_ != nullptr) {
    obs_->observe(obs::builtin_metrics().checkpoint_level,
                  static_cast<double>(level_index));
    obs_->observe(obs::builtin_metrics().checkpoint_cost_seconds, elapsed.to_seconds());
  }
  // The image covers progress as of phase entry (identical to progress_
  // for blocking techniques, where checkpoint_work_rate is 0).
  saved_[level_index] = checkpoint_snapshot_;
  progress_ = std::min(progress_ + elapsed * plan_.checkpoint_work_rate,
                       plan_.work_target);
  // A completed checkpoint is the consistency point at which failed
  // replicas are re-provisioned (DESIGN.md §4).
  dup_healthy_ += dup_degraded_;
  dup_degraded_ = 0;
  if (plan_.adaptive_interval) retune_quantum();
  next_checkpoint_at_ = progress_ + quantum_;
}

void ResilientAppRuntime::on_checkpoint_done() {
  finish_checkpoint();
  enter_working();
}

std::uint64_t ResilientAppRuntime::run_chain(PhaseCalendar::Entry bound,
                                             std::uint64_t executed) {
  XRES_CHECK(can_chain(), "run_chain outside a Working/Checkpointing phase");
  // A PFS device completes shared-file-system checkpoints itself.
  XRES_CHECK(pfs_service_ == nullptr, "run_chain with a PFS transfer service");
  PhaseCalendar::Entry next = sim_.slot_entry(phase_slot_);
  XRES_CHECK(PhaseCalendar::earlier(next, bound), "run_chain with no boundary before its bound");
  sim_.retract(phase_slot_);
  for (;;) {
    // Simulation::run's watchdog cadence, counted in executed events.
    if ((executed & 0xFFFU) == 0) {
      sim_.count_watchdog_poll();
      deadline_poll();
    }
    sim_.fire_held(next.time);
    ++executed;
    Duration length;
    if (phase_ == Phase::kWorking) {
      if (!finish_segment()) return executed;
      length = begin_checkpointing();
    } else {
      finish_checkpoint();
      if (!begin_working(length)) return executed;
    }
    next = sim_.draw_entry(phase_slot_, length);
    if (!PhaseCalendar::earlier(next, bound)) {
      sim_.publish_entry(phase_slot_, next);
      return executed;
    }
  }
}

void ResilientAppRuntime::retune_quantum() {
  // Gamma-prior rate estimate: the planned rate contributes two pseudo-
  // failures of prior weight, so early in the run the planner's interval
  // dominates and the estimate converges to the empirical rate later. The
  // prior window is capped at the work target so a wildly optimistic plan
  // (tiny planned rate → huge 2/λ window) cannot drown out the evidence.
  const Duration elapsed = sim_.now() - start_time_;
  if (elapsed <= Duration::zero()) return;
  constexpr double kPriorFailures = 2.0;
  double prior_window_s = plan_.work_target.to_seconds();
  if (plan_.failure_rate > Rate::zero()) {
    prior_window_s = std::min(prior_window_s,
                              kPriorFailures / plan_.failure_rate.per_second_value());
  }
  const double prior_failures =
      prior_window_s * (plan_.failure_rate > Rate::zero()
                            ? plan_.failure_rate.per_second_value()
                            : 0.0);
  const double rate = (static_cast<double>(result_.failures_seen) + prior_failures) /
                      (elapsed.to_seconds() + prior_window_s);
  if (rate <= 0.0) return;
  quantum_ = daly_interval(plan_.levels.front().save_cost, Rate::per_second(rate));
}

void ResilientAppRuntime::enter_restarting(std::size_t level_index, Duration restore_cost,
                                           bool shared_pfs) {
  phase_ = Phase::kRestarting;
  phase_start_ = sim_.now();
  phase_level_ = level_index;
  phase_pfs_ = shared_pfs;
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().restarts);
  schedule_phase(restore_cost, shared_pfs);
}

void ResilientAppRuntime::on_restart_done() {
  accrue_known(sim_.now() - phase_start_, result_.time_restarting,
               SpanKind::kRestart, active_normal_nodes_);
  enter_working();
}

void ResilientAppRuntime::enter_recovering(Duration lost_work) {
  phase_ = Phase::kRecovering;
  phase_start_ = sim_.now();
  phase_pfs_ = false;
  recovery_lost_ = lost_work;
  if (obs_ != nullptr) obs_->count(obs::builtin_metrics().recoveries);
  const Duration duration = plan_.levels.front().restore_cost +
                            lost_work / plan_.recovery_parallelism;
  // Parallel recovery restores from in-memory partner copies, never the
  // shared PFS.
  schedule_phase(duration, /*shared_pfs=*/false);
}

void ResilientAppRuntime::on_recovery_done() {
  accrue_known(sim_.now() - phase_start_, result_.time_recovering,
               SpanKind::kRecovery, active_recovery_nodes_);
  recovery_lost_ = Duration::zero();
  if (progress_ >= next_checkpoint_at_ && progress_ < plan_.work_target) {
    // The failure interrupted a checkpoint at this boundary: retake it.
    enter_checkpointing();
  } else {
    enter_working();
  }
}

void ResilientAppRuntime::complete() {
  release_calendar();
  phase_ = Phase::kDone;
  result_.completed = true;
  result_.wall_time = sim_.now() - start_time_;
  result_.efficiency =
      result_.wall_time > Duration::zero() ? plan_.baseline / result_.wall_time : 1.0;
  result_.efficiency = std::min(result_.efficiency, 1.0);
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("complete", "run", sim_.now(),
                           {obs::trace_arg("efficiency", result_.efficiency)});
  }
  on_complete_(result_);
}

void ResilientAppRuntime::abort_on_timeout() {
  if (finished()) return;
  accrue(sim_.now() - phase_start_);
  release_calendar();
  phase_ = Phase::kAborted;
  result_.completed = false;
  result_.wall_time = sim_.now() - start_time_;
  result_.efficiency = 0.0;
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("abort", "run", sim_.now(),
                           {obs::trace_arg("reason", std::string{"wall-time cap"})});
  }
  XRES_LOG_DEBUG("application aborted by wall-time cap after " +
                 to_string(result_.wall_time));
  on_complete_(result_);
}

void ResilientAppRuntime::abort() {
  if (finished() || phase_ == Phase::kIdle) return;
  accrue(sim_.now() - phase_start_);
  release_calendar();
  phase_ = Phase::kAborted;
  result_.completed = false;
  result_.wall_time = sim_.now() - start_time_;
  result_.efficiency = 0.0;
  if (obs_ != nullptr && obs_->trace() != nullptr) {
    obs_->trace()->instant("abort", "run", sim_.now(),
                           {obs::trace_arg("reason", std::string{"external"})});
  }
}

bool ResilientAppRuntime::redundancy_masks_failure() {
  // Classify which physical node the failure hit, weighted by replica
  // population: an unduplicated process (fatal), one of a healthy pair
  // (masked: the pair degrades), or the survivor of a degraded pair
  // (fatal).
  const double w_single = static_cast<double>(singles_);
  const double w_healthy = 2.0 * static_cast<double>(dup_healthy_);
  const double w_degraded = static_cast<double>(dup_degraded_);
  const double total = w_single + w_healthy + w_degraded;
  if (total <= 0.0) return false;
  const double u = rng_.uniform(0.0, total);
  if (u < w_healthy) {
    XRES_CHECK(dup_healthy_ > 0, "replica accounting underflow");
    --dup_healthy_;
    ++dup_degraded_;
    return true;
  }
  return false;
}

void ResilientAppRuntime::handle_rollback_failure(SeverityLevel severity) {
  // Best recovery point: the newest saved progress among levels that cover
  // this severity; ties broken toward the cheaper restore.
  std::size_t best_idx = std::numeric_limits<std::size_t>::max();
  Duration best = -Duration::infinity();
  for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
    if (plan_.levels[i].coverage < severity) continue;
    if (saved_[i] > best ||
        (best_idx != std::numeric_limits<std::size_t>::max() && saved_[i] == best &&
         plan_.levels[i].restore_cost < plan_.levels[best_idx].restore_cost)) {
      best = saved_[i];
      best_idx = i;
    }
  }
  XRES_CHECK(best_idx != std::numeric_limits<std::size_t>::max(),
             "no checkpoint level covers the failure severity");

  const Duration rework = progress_ - best;
  result_.rework += rework;
  ++result_.rollbacks;
  progress_ = best;
  if (obs_ != nullptr) {
    obs_->observe(obs::builtin_metrics().rollback_rework_minutes,
                  rework.to_seconds() / 60.0);
    if (obs_->trace() != nullptr) {
      obs_->trace()->instant("rollback", "failure", sim_.now(),
                             {obs::trace_arg("level", static_cast<int>(best_idx)),
                              obs::trace_arg("rework_s", rework.to_seconds())});
    }
  }
  // Retune on rollbacks too: an application thrashing under a badly
  // misspecified interval may never complete a checkpoint, and rollback
  // is exactly when fresh failure evidence arrives.
  if (plan_.adaptive_interval) retune_quantum();
  next_checkpoint_at_ = progress_ + quantum_;

  // Restarting re-provisions failed replicas.
  dup_healthy_ += dup_degraded_;
  dup_degraded_ = 0;

  enter_restarting(best_idx, plan_.levels[best_idx].restore_cost,
                   plan_.levels[best_idx].uses_shared_pfs);
}

void ResilientAppRuntime::handle_parallel_recovery_failure() {
  // Only the failed node's work since the last in-memory checkpoint must
  // be replayed; global progress is retained (message logging).
  const Duration lost = progress_ - saved_.front();
  XRES_CHECK(lost >= Duration::zero(), "negative lost work");
  enter_recovering(lost);
}

void ResilientAppRuntime::on_failure(const Failure& failure) {
  if (finished() || phase_ == Phase::kIdle) return;
  if (plan_.levels.empty()) return;  // ideal-baseline mode is failure-oblivious
  ++result_.failures_seen;

  const auto note_failure = [&](bool masked) {
    if (obs_ == nullptr) return;
    obs_->observe(obs::builtin_metrics().failure_severity,
                  static_cast<double>(failure.severity));
    if (obs_->trace() != nullptr) {
      obs_->trace()->instant("failure", "failure", sim_.now(),
                             {obs::trace_arg("severity", failure.severity),
                              obs::trace_arg("masked", masked),
                              obs::trace_arg("phase", std::string{phase_name()})});
    }
  };

  // Parallel recovery idles all but (1 + P) nodes while recovering; a
  // failure landing on an idle node has nothing to destroy (its state is
  // protected by the double in-memory checkpoint). Thin accordingly.
  if (!plan_.rollback_on_failure && phase_ == Phase::kRecovering) {
    const double active_fraction =
        std::min(1.0, (1.0 + plan_.recovery_parallelism) /
                          static_cast<double>(plan_.app.nodes));
    if (!rng_.bernoulli(active_fraction)) {
      ++result_.failures_masked;
      note_failure(/*masked=*/true);
      return;
    }
  }

  if (plan_.replication_degree > 1.0 && redundancy_masks_failure()) {
    ++result_.failures_masked;
    note_failure(/*masked=*/true);
    return;  // execution continues undisturbed
  }
  note_failure(/*masked=*/false);

  // The failure interrupts the current phase. Work performed up to the
  // failure instant counts as progress — at full rate in the Working
  // phase, at the semi-blocking rate during an overlapped checkpoint.
  const Duration elapsed = sim_.now() - phase_start_;
  if (phase_ == Phase::kWorking) {
    progress_ += elapsed;
  } else if (phase_ == Phase::kCheckpointing) {
    progress_ = std::min(progress_ + elapsed * plan_.checkpoint_work_rate,
                         plan_.work_target);
  }
  accrue(elapsed);
  cancel_pending();

  if (plan_.rollback_on_failure) {
    handle_rollback_failure(failure.severity);
  } else {
    handle_parallel_recovery_failure();
  }
}

}  // namespace xres
