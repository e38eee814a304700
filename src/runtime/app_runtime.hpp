#pragma once

/// \file app_runtime.hpp
/// ResilientAppRuntime: the per-application state machine that executes an
/// ExecutionPlan inside a Simulation under injected failures.
///
/// Phases:
///
///   Working ──quantum──▶ Checkpointing ──▶ Working ... ──▶ Done
///      │                      │
///      └────── failure ───────┘
///              │
///              ├─ masked (redundant replica absorbed it) → phase continues
///              ├─ rollback techniques → Restarting → Working (recompute)
///              └─ parallel recovery → Recovering → resume (no rollback)
///
/// The runtime is driven entirely by its owning Simulation: it schedules
/// one pending phase-completion event at a time; `on_failure` cancels it
/// and transitions. Progress is measured in stretched-work seconds against
/// plan.work_target; a per-level ledger records the progress captured by
/// the last completed checkpoint of each level.

#include <cstdint>
#include <functional>
#include <vector>

#include <optional>

#include "failure/process.hpp"
#include "resilience/plan.hpp"
#include "runtime/result.hpp"
#include "runtime/timeline.hpp"
#include "runtime/transfer_service.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {

namespace obs {
class TrialObs;
}

/// Direct-execution hand-off between a ResilientAppRuntime and the direct
/// trial engine (core/trial_engine.cpp). Instead of scheduling its phase
/// and timeout events into the Simulation's queue, a direct-attached
/// runtime publishes them into these slots; the engine's dispatch loop
/// merges them with its own failure stream by (time, seq) — the exact total
/// order the event queue would have produced. `next_seq` is the shared
/// virtual insertion counter: every schedule action (failure gap, timeout,
/// phase) consumes one in the same call order as the event path, so ties in
/// time break identically.
struct DirectHost {
  TimePoint phase_time{};
  std::uint64_t phase_seq{0};
  bool phase_pending{false};
  TimePoint timeout_time{};
  std::uint64_t timeout_seq{0};
  bool timeout_pending{false};
  std::uint64_t next_seq{0};
};

class ResilientAppRuntime {
 public:
  enum class Phase { kIdle, kWorking, kCheckpointing, kRestarting, kRecovering, kDone, kAborted };

  /// Invoked exactly once, on completion or wall-time-cap abort (not on an
  /// external abort()).
  using CompletionCallback = std::function<void(const ExecutionResult&)>;

  /// \p seed drives the runtime's internal randomness (redundancy victim
  /// classification, parallel-recovery idle-node thinning).
  ResilientAppRuntime(Simulation& sim, ExecutionPlan plan, std::uint64_t seed,
                      CompletionCallback on_complete);

  ResilientAppRuntime(const ResilientAppRuntime&) = delete;
  ResilientAppRuntime& operator=(const ResilientAppRuntime&) = delete;
  ~ResilientAppRuntime();

  /// Begin executing at the current simulation time.
  void start();

  /// Deliver a failure to this application (from either failure process).
  void on_failure(const Failure& failure);

  /// Externally stop the execution (deadline drop). No callback is fired;
  /// the caller already knows. Safe to call in any phase.
  void abort();

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool finished() const {
    return phase_ == Phase::kDone || phase_ == Phase::kAborted;
  }
  [[nodiscard]] const ExecutionPlan& plan() const { return plan_; }

  /// Stretched work completed so far.
  [[nodiscard]] Duration progress() const { return progress_; }

  /// The checkpoint interval currently in force (equals the plan's
  /// quantum unless adaptive_interval has retuned it).
  [[nodiscard]] Duration current_quantum() const { return quantum_; }

  /// Fraction of the stretched work target completed, in [0, 1].
  [[nodiscard]] double progress_fraction() const {
    return progress_ / plan_.work_target;
  }

  /// Statistics accumulated so far (final values after completion).
  [[nodiscard]] const ExecutionResult& result() const { return result_; }

  [[nodiscard]] const char* phase_name() const;

  /// Record every phase span for later inspection/rendering. Must be
  /// called before start(); costs one vector append per phase transition.
  void enable_timeline();

  /// Route PFS-backed checkpoint/restart phases through \p service (a PFS
  /// device shared across applications; runtime/transfer_service.hpp).
  /// Must be called before start(); the service must outlive the runtime.
  /// Without it, nominal Eq.-3 durations are taken literally.
  void set_pfs_transfer_service(PfsDeviceTransferService* service);

  /// The recorded timeline, or nullptr when recording was not enabled.
  [[nodiscard]] const Timeline* timeline() const {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }

  /// Attach a per-trial observation context (metrics and/or sim-time trace;
  /// see obs/trial_obs.hpp). Must be called before start(); \p obs (may be
  /// null) must outlive the runtime. When null or disabled, every
  /// instrumentation site reduces to a pointer test.
  void set_observer(obs::TrialObs* obs);

  /// Direct execution: publish phase/timeout events into \p host instead of
  /// the Simulation queue (see DirectHost). Must be called before start();
  /// incompatible with a PFS transfer service. \p host must outlive the
  /// runtime.
  void attach_direct_host(DirectHost* host);

  /// Fire the pending phase-completion published in the direct host: clears
  /// the pending flag and invokes the phase's completion handler, exactly
  /// as the queued event's callback would. Only valid direct-attached with
  /// a pending phase, at sim.now() == host->phase_time.
  void dispatch_phase_direct();

  /// Fire the pending wall-time-cap timeout published in the direct host.
  void dispatch_timeout_direct();

 private:
  void enter_working();
  void enter_checkpointing();
  void enter_restarting(std::size_t level_index, Duration restore_cost, bool shared_pfs);
  void enter_recovering(Duration lost_work);

  /// Schedule the current phase's completion: a plain timer, or a shared
  /// PFS transfer when the phase moves data through the file system and a
  /// service is attached. \p done is parked in phase_done_ so the scheduled
  /// closure captures only `this` (stays inline in SmallCallback's buffer).
  void schedule_phase(Duration nominal, bool shared_pfs, EventCallback done);

  /// Direct-mode counterpart of schedule_phase: publishes the completion
  /// time into the host (no callback — dispatch_phase_direct() re-derives
  /// the handler from phase_ and phase_arg_, so the hot loop never builds a
  /// closure).
  void schedule_phase_direct(Duration nominal);

  /// Cancel the pending timeout if any (queue or direct).
  void cancel_timeout();
  void complete();
  void abort_on_timeout();

  void on_segment_done(Duration length);
  void on_checkpoint_done(std::size_t level_index, Duration cost);
  void on_restart_done(Duration cost);
  void on_recovery_done(Duration duration);

  /// Book elapsed phase time into the result buckets + energy integral.
  void accrue(Duration elapsed);

  /// accrue() body for callers that know the current phase statically
  /// (the per-event completion handlers): identical operations in the
  /// identical order, minus the phase dispatch. \p bucket is the
  /// result_ time bucket for the phase and \p nodes its active-node
  /// count.
  void accrue_known(Duration elapsed, Duration& bucket, SpanKind span,
                    double nodes);

  /// The cold tail of accrue_known: trace-span emission (only reached
  /// when the trial collects a trace).
  void accrue_trace_span(SpanKind span, Duration elapsed);

  /// Active node count in the current phase (energy model).
  [[nodiscard]] double active_nodes() const;

  /// Handle a non-masked failure for rollback techniques (CR/ML/Red).
  void handle_rollback_failure(SeverityLevel severity);

  /// Handle a failure under parallel recovery.
  void handle_parallel_recovery_failure();

  /// Redundancy replica classification: returns true when the failure was
  /// absorbed by a healthy replica (execution continues undisturbed).
  bool redundancy_masks_failure();

  /// Adaptive-interval extension: re-derive the Eq.-4 interval from the
  /// observed failure count (Gamma-prior estimate anchored on the planned
  /// rate). Called after each completed checkpoint.
  void retune_quantum();

  void cancel_pending();

  Simulation& sim_;
  ExecutionPlan plan_;
  Pcg32 rng_;
  CompletionCallback on_complete_;

  Phase phase_{Phase::kIdle};
  TimePoint start_time_{};
  TimePoint phase_start_{};
  Duration progress_{Duration::zero()};
  Duration quantum_{Duration::infinity()};
  Duration next_checkpoint_at_{Duration::infinity()};
  std::uint64_t checkpoint_counter_{0};

  /// Progress captured by the newest completed checkpoint of each level
  /// (index aligned with plan_.levels). Starts at zero: recovering with no
  /// checkpoint restarts the application from the beginning.
  std::vector<Duration> saved_;

  /// Parallel recovery: stretched work being replayed.
  Duration recovery_lost_{Duration::zero()};

  /// Progress value captured by the in-flight checkpoint (semi-blocking
  /// checkpoints advance progress_ past it during the phase).
  Duration checkpoint_snapshot_{Duration::zero()};

  /// Redundancy replica health (counts of virtual processes).
  std::uint32_t dup_healthy_{0};
  std::uint32_t dup_degraded_{0};
  std::uint32_t singles_{0};

  /// Checkpoint-level odometer pattern, precomputed at start(): entry
  /// (k-1) % size is level_index_for_checkpoint(k). Empty when the cycle
  /// (the product of the nesting counts) is too long to tabulate.
  /// level_cycle_pos_ tracks checkpoint_counter_ % size incrementally so
  /// the per-checkpoint lookup never divides.
  std::vector<std::uint32_t> level_cycle_;
  std::uint64_t level_cycle_pos_{0};

  /// active_nodes() for the non-recovering / recovering phases,
  /// precomputed at start() — accrue() runs once per simulated phase.
  double active_normal_nodes_{0.0};
  double active_recovery_nodes_{0.0};

  std::optional<Timeline> timeline_;
  PfsDeviceTransferService* pfs_service_{nullptr};
  obs::TrialObs* obs_{nullptr};
  DirectHost* direct_{nullptr};

  /// kWorking's on_segment_done target in direct mode (the only handler
  /// argument dispatch_phase_direct cannot re-derive from other state).
  Duration phase_arg_{Duration::zero()};

  /// Checkpoint level driving the current Checkpointing/Restarting phase
  /// and whether it moves data through the shared PFS (trace span args).
  std::size_t phase_level_{0};
  bool phase_pfs_{false};

  EventId pending_{};
  PfsDeviceTransferService::TransferHandle pending_transfer_{};
  bool pending_is_transfer_{false};
  bool has_pending_{false};
  /// Completion handler of the in-flight phase (see schedule_phase).
  EventCallback phase_done_;
  EventId timeout_event_{};
  bool has_timeout_{false};

  ExecutionResult result_{};
};

}  // namespace xres
