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
/// The runtime is driven entirely by its owning Simulation through two
/// phase-calendar slots (sim/phase_calendar.hpp), open from construction
/// until the run finishes: the current phase's completion and the
/// wall-time cap. Entering a phase
/// publishes the phase slot — one insertion seq, no callback object — and
/// the calendar fires it back through on_calendar(), which re-derives the
/// handler from the current phase. `on_failure` retracts it and
/// transitions. The one exception is a phase that moves data through a
/// shared PFS device (set_pfs_transfer_service): the device owns that
/// phase's completion, a callback it queues (Simulation::schedule_at, one
/// more calendar slot), and that callback enters the next phase, which
/// publishes the phase slot again.
///
/// A loop that owns every other pending entry (the direct trial engine)
/// may instead dispatch the Working⇄Checkpointing alternation itself
/// through run_chain(): the boundaries before the next interrupt fire back
/// to back, each running the same boundary arithmetic (finish_segment,
/// begin_checkpointing, finish_checkpoint, begin_working) as the
/// calendar-dispatched handlers and drawing the same seq, with the next
/// boundary held in a local and published only when the chain stops.
/// Trace spans and timeline entries are written by that shared arithmetic,
/// so a chained run records what a calendar-dispatched one does. Progress
/// is measured in stretched-work seconds against plan.work_target; a
/// per-level ledger records the progress captured by the last completed
/// checkpoint of each level.

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

class ResilientAppRuntime final : private CalendarClient {
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

  /// Calendar dispatch (CalendarClient): the phase slot runs the current
  /// phase's completion handler, the timeout slot the wall-time-cap abort.
  void on_calendar(std::uint32_t tag) override;

  /// The calendar slots of the phase completion and the wall-time cap, for
  /// a loop that dispatches them itself (core/trial_engine.cpp). Valid
  /// until the run finishes, which also fires the completion callback.
  [[nodiscard]] CalendarSlot phase_slot() const { return phase_slot_; }
  [[nodiscard]] CalendarSlot timeout_slot() const { return timeout_slot_; }

  /// True when the published phase boundary may be dispatched by
  /// run_chain(): the phase is Working or Checkpointing.
  [[nodiscard]] bool can_chain() const {
    return phase_ == Phase::kWorking || phase_ == Phase::kCheckpointing;
  }

  /// Fire the published phase boundary and every Working⇄Checkpointing
  /// boundary after it that comes before \p bound, back to back: each is
  /// one Simulation::fire_held(), the handler arithmetic that
  /// on_calendar() runs, and one seq draw, the next boundary staying in a
  /// local instead of the calendar. The chain stops at the first boundary
  /// not before \p bound (published, so the caller's loop resumes) or when
  /// the run completes. Polls the watchdog every 4096 events exactly as
  /// Simulation::run does, counting from \p executed; returns the updated
  /// count. Requires can_chain(), no PFS transfer service, the phase
  /// boundary strictly before \p bound, and \p bound's slot unchanged
  /// while only phase boundaries fire (the caller owns every other pending
  /// entry).
  std::uint64_t run_chain(PhaseCalendar::Entry bound, std::uint64_t executed);

  /// The recorded timeline, or nullptr when recording was not enabled.
  [[nodiscard]] const Timeline* timeline() const {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }

  /// Attach a per-trial observation context (metrics and/or sim-time trace;
  /// see obs/trial_obs.hpp). Must be called before start(); \p obs (may be
  /// null) must outlive the runtime. When null or disabled, every
  /// instrumentation site reduces to a pointer test.
  void set_observer(obs::TrialObs* obs);

 private:
  /// Calendar slot tags.
  enum : std::uint32_t { kPhaseSlot, kTimeoutSlot };

  void enter_working();
  void enter_checkpointing();

  // The Working⇄Checkpointing boundary arithmetic, shared by the
  // calendar-dispatched handlers (on_segment_done, on_checkpoint_done and
  // the enter_* functions they call) and run_chain(); publishing the next
  // boundary is left to the caller. These and accrue_known are inline,
  // defined (and only called) in app_runtime.cpp.

  /// Enter Working and set \p length to the segment's duration; false
  /// (after complete()) when the work target is already reached.
  inline bool begin_working(Duration& length);
  /// Book the Working segment ending now; false (after complete()) when it
  /// reached the work target.
  inline bool finish_segment();
  /// Enter Checkpointing; returns the checkpoint's nominal duration.
  inline Duration begin_checkpointing();
  /// Book the checkpoint ending now and set the next checkpoint target.
  inline void finish_checkpoint();
  void enter_restarting(std::size_t level_index, Duration restore_cost, bool shared_pfs);
  void enter_recovering(Duration lost_work);

  /// Schedule the current phase's completion: publish the phase slot, or
  /// begin a shared PFS transfer when the phase moves data through the
  /// file system and a service is attached.
  void schedule_phase(Duration nominal, bool shared_pfs);
  /// schedule_phase's shared-PFS branch: the device completes the phase.
  /// Kept out of line so schedule_phase stays a small inlinable publish.
  [[gnu::noinline]] void begin_pfs_transfer(Duration nominal);

  /// The current phase's completion handler (from either source).
  void on_phase_done();

  void complete();
  void abort_on_timeout();

  void on_segment_done();
  void on_checkpoint_done();
  void on_restart_done();
  void on_recovery_done();

  /// Book elapsed phase time into the result buckets + energy integral.
  void accrue(Duration elapsed);

  /// accrue() body for callers that know the current phase statically
  /// (the per-event completion handlers): identical operations in the
  /// identical order, minus the phase dispatch. \p bucket is the
  /// result_ time bucket for the phase and \p nodes its active-node
  /// count.
  inline void accrue_known(Duration elapsed, Duration& bucket, SpanKind span,
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

  /// Retract the in-flight phase completion (calendar slot or transfer).
  void cancel_pending();

  /// Leave the calendar for good (the run finished or the runtime is going
  /// away): retract everything pending and close both slots, so a workload
  /// calendar is sized by its running applications, not by every
  /// application it ever started.
  void release_calendar();

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

  /// Progress the current Working segment ends at (the one handler input
  /// on_phase_done cannot re-derive from other state).
  Duration segment_target_{Duration::zero()};

  /// Checkpoint level driving the current Checkpointing/Restarting phase
  /// and whether it moves data through the shared PFS (trace span args).
  std::size_t phase_level_{0};
  bool phase_pfs_{false};

  CalendarSlot phase_slot_;
  CalendarSlot timeout_slot_;
  bool slots_open_{true};
  /// The in-flight phase is a PFS device transfer rather than a published
  /// phase slot.
  PfsDeviceTransferService::TransferHandle pending_transfer_{};
  bool transfer_pending_{false};

  ExecutionResult result_{};
};

}  // namespace xres
