// Scenario tests for ResilientAppRuntime: hand-crafted plans with
// deterministic failure injections and exact expected timelines.

#include <gtest/gtest.h>

#include "core/trial_engine.hpp"
#include "runtime/app_runtime.hpp"
#include "seq_counter_peer.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

/// A minimal single-level plan: 100 s of work, checkpoint every 10 s of
/// work at a cost of 2 s, restore 3 s.
ExecutionPlan tiny_plan() {
  ExecutionPlan plan;
  plan.kind = TechniqueKind::kCheckpointRestart;
  plan.app = AppSpec{app_type_by_name("A32"), 10, 100};
  plan.physical_nodes = 10;
  plan.baseline = Duration::seconds(100.0);
  plan.work_target = Duration::seconds(100.0);
  plan.checkpoint_quantum = Duration::seconds(10.0);
  plan.levels = {CheckpointLevelSpec{Duration::seconds(2.0), Duration::seconds(3.0), 3}};
  plan.nesting = {1};
  plan.failure_rate = Rate::zero();
  return plan;
}

struct Harness {
  Simulation sim;
  ExecutionResult result;
  bool finished{false};

  std::unique_ptr<ResilientAppRuntime> make(ExecutionPlan plan, std::uint64_t seed = 1) {
    return std::make_unique<ResilientAppRuntime>(
        sim, std::move(plan), seed, [this](const ExecutionResult& r) {
          result = r;
          finished = true;
        });
  }

  void inject_at(ResilientAppRuntime& rt, double seconds, SeverityLevel severity = 1) {
    sim.schedule_at(TimePoint::at(Duration::seconds(seconds)), [&rt, severity, this] {
      rt.on_failure(Failure{sim.now(), severity});
    });
  }
};

TEST(Runtime, FailureFreeTimelineIsExact) {
  // 10 segments of 10 s; checkpoints after segments 1..9 (the run completes
  // at the 10th boundary without checkpointing): 100 + 9×2 = 118 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(h.result.time_checkpointing.to_seconds(), 18.0);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 100.0 / 118.0);
  EXPECT_EQ(h.result.failures_seen, 0U);
  // Energy: 10 nodes busy for the whole 118 s.
  EXPECT_DOUBLE_EQ(h.result.node_seconds, 1180.0);
}

TEST(Runtime, NoneplanRunsAtFullEfficiency) {
  Harness h;
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kNone;
  plan.levels.clear();
  plan.nesting.clear();
  plan.checkpoint_quantum = Duration::infinity();
  auto rt = h.make(std::move(plan));
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 1.0);
  EXPECT_EQ(h.result.checkpoints_completed, 0U);
}

TEST(Runtime, FailureDuringWorkRollsBackToLastCheckpoint) {
  // Timeline: w10 c2 (t=12), w10 c2 (t=24), failure at t=25 with progress
  // 21 -> roll back to 20, restart 3 s (t=28), redo 1 s + finish.
  // Total = 118 + 1 (lost work) + 3 (restart) = 122 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 25.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 122.0);
  EXPECT_EQ(h.result.failures_seen, 1U);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 3.0);
  // The lost second is worked twice.
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 101.0);
}

TEST(Runtime, FailureDuringCheckpointInvalidatesIt) {
  // The first checkpoint runs t=10..12. A failure at t=11 invalidates it:
  // progress 10 is NOT saved; roll back to 0, restart 3 s (t=14), redo the
  // full 118 s timeline. Wall = 14 + 118 = 132 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 11.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 132.0);
  EXPECT_EQ(h.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 10.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
}

TEST(Runtime, FailureDuringRestartRestartsTheRestart) {
  // First failure at t=25 -> restart until t=28. Second failure at t=26
  // interrupts the restart: roll back again (no extra progress lost) and
  // restart anew: 26 + 3 = 29, then 1 s redo + remaining timeline.
  // Wall = 122 + 1 (failed restart second attempt offset) = 123 s.
  Harness h;
  auto rt = h.make(tiny_plan());
  h.inject_at(*rt, 25.0);
  h.inject_at(*rt, 26.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 123.0);
  EXPECT_EQ(h.result.rollbacks, 2U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 1.0);  // only lost once
  EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 4.0);  // 1 aborted + 3 full
}

TEST(Runtime, MultilevelSeverityChoosesRecoveryLevel) {
  // Two levels: L1 (cov 1, save 1, restore 1) and L2 (cov 2, save 5,
  // restore 5), nesting {2,1}: checkpoints at progress 10 (L1), 20 (L2),
  // 30 (L1), ...
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kMultilevel;
  plan.levels = {CheckpointLevelSpec{Duration::seconds(1.0), Duration::seconds(1.0), 1},
                 CheckpointLevelSpec{Duration::seconds(5.0), Duration::seconds(5.0), 2}};
  plan.nesting = {2, 1};

  {
    // Severity-1 failure at t=15 (progress 14, after the L1 checkpoint at
    // 10): recovers from L1 at progress 10 with a 1 s restore.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 15.0, 1);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 4.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 1.0);
  }
  {
    // Severity-2 failure at t=15: the only completed checkpoint is L1,
    // which cannot recover severity 2 -> restart from scratch via L2
    // restore (5 s) with 14 s of rework.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 15.0, 2);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 14.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 5.0);
  }
  {
    // Severity-2 failure at t=28 (progress 25; L2 completed at progress 20
    // by t=17? timeline: w10 c1 t=11, w10 c5 t=26, fail at t=28 with
    // progress 22): recovers from L2 at progress 20.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 28.0, 2);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 2.0);
    EXPECT_DOUBLE_EQ(h.result.time_restarting.to_seconds(), 5.0);
  }
}

TEST(Runtime, ParallelRecoveryRetainsProgress) {
  // PR plan: restore 3 s, parallelism 2. Failure at t=25 (progress 21,
  // saved 20): recovery = 3 + 1/2 = 3.5 s; progress stays 21.
  // Wall = 118 + 3.5 = 121.5 s.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kParallelRecovery;
  plan.rollback_on_failure = false;
  plan.recovery_parallelism = 2.0;
  Harness h;
  auto rt = h.make(std::move(plan));
  h.inject_at(*rt, 25.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_TRUE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 121.5);
  EXPECT_EQ(h.result.rollbacks, 0U);
  EXPECT_DOUBLE_EQ(h.result.rework.to_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.result.time_recovering.to_seconds(), 3.5);
  EXPECT_DOUBLE_EQ(h.result.time_working.to_seconds(), 100.0);
  // Energy: 10 nodes for 118 s + 3 active nodes (1 + P) for 3.5 s.
  EXPECT_DOUBLE_EQ(h.result.node_seconds, 1180.0 + 3.0 * 3.5);
}

TEST(Runtime, ParallelRecoveryInterruptedCheckpointIsRetaken) {
  // Failure at t=11 (inside the first checkpoint, t=10..12): PR does not
  // roll back; lost = 10 - 0 = 10 since nothing is saved yet. Recovery =
  // 3 + 10/2 = 8 s (t=19), then the checkpoint is retaken (2 s, t=21),
  // then the remaining 90 s of work + 8 more checkpoints × 2 s.
  // Wall = 21 + 90 + 16 = 127 s.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kParallelRecovery;
  plan.rollback_on_failure = false;
  plan.recovery_parallelism = 2.0;
  Harness h;
  auto rt = h.make(std::move(plan));
  h.inject_at(*rt, 11.0);
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 127.0);
  EXPECT_EQ(h.result.checkpoints_completed, 9U);
}

TEST(Runtime, RedundancyMasksFirstReplicaFailure) {
  // One virtual process, two physical nodes (r = 2): the first failure is
  // always masked (both replicas healthy), the second before any
  // checkpoint exhausts the pair and forces a restart.
  ExecutionPlan plan = tiny_plan();
  plan.kind = TechniqueKind::kRedundancyFull;
  plan.app.nodes = 1;
  plan.physical_nodes = 2;
  plan.replication_degree = 2.0;

  {
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    // Masked: no delay at all.
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
    EXPECT_EQ(h.result.failures_seen, 1U);
    EXPECT_EQ(h.result.failures_masked, 1U);
    EXPECT_EQ(h.result.rollbacks, 0U);
  }
  {
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    h.inject_at(*rt, 7.0);  // second hit on the surviving replica: fatal
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_EQ(h.result.failures_masked, 1U);
    EXPECT_EQ(h.result.rollbacks, 1U);
    // Lost 7 s of work + 3 s restart.
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 128.0);
  }
  {
    // A completed checkpoint heals the degraded pair: failures at t=5 and
    // t=15 (after the checkpoint at t=12) are both masked.
    Harness h;
    auto rt = h.make(plan);
    h.inject_at(*rt, 5.0);
    h.inject_at(*rt, 15.0);
    rt->start();
    h.sim.run();
    ASSERT_TRUE(h.finished);
    EXPECT_EQ(h.result.failures_masked, 2U);
    EXPECT_EQ(h.result.rollbacks, 0U);
    EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 118.0);
  }
}

TEST(Runtime, WallTimeCapAborts) {
  ExecutionPlan plan = tiny_plan();
  plan.max_wall_time = Duration::seconds(50.0);
  Harness h;
  auto rt = h.make(std::move(plan));
  rt->start();
  // Stall the run by hammering it with failures that each cost more than
  // they allow progress.
  for (double t = 5.0; t < 200.0; t += 4.0) h.inject_at(*rt, t);
  h.sim.run();
  ASSERT_TRUE(h.finished);
  EXPECT_FALSE(h.result.completed);
  EXPECT_DOUBLE_EQ(h.result.efficiency, 0.0);
  EXPECT_DOUBLE_EQ(h.result.wall_time.to_seconds(), 50.0);
  EXPECT_EQ(rt->phase(), ResilientAppRuntime::Phase::kAborted);
}

TEST(Runtime, ExternalAbortStopsSilently) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.schedule_at(TimePoint::at(Duration::seconds(30.0)), [&] { rt->abort(); });
  h.sim.run();
  EXPECT_FALSE(h.finished);  // no completion callback on external abort
  EXPECT_EQ(rt->phase(), ResilientAppRuntime::Phase::kAborted);
  EXPECT_FALSE(rt->result().completed);
}

TEST(Runtime, FailuresAfterCompletionAreIgnored) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  h.sim.run();
  ASSERT_TRUE(h.finished);
  const ExecutionResult before = rt->result();
  rt->on_failure(Failure{h.sim.now(), 1});
  EXPECT_EQ(rt->result().failures_seen, before.failures_seen);
}

TEST(Runtime, ProgressFractionAndPhaseNames) {
  Harness h;
  auto rt = h.make(tiny_plan());
  EXPECT_STREQ(rt->phase_name(), "idle");
  rt->start();
  EXPECT_STREQ(rt->phase_name(), "working");
  h.sim.run_until(TimePoint::at(Duration::seconds(12.0)));
  EXPECT_NEAR(rt->progress_fraction(), 0.1, 1e-12);
  h.sim.run();
  EXPECT_STREQ(rt->phase_name(), "done");
  EXPECT_DOUBLE_EQ(rt->progress_fraction(), 1.0);
}

TEST(Runtime, StartTwiceThrows) {
  Harness h;
  auto rt = h.make(tiny_plan());
  rt->start();
  EXPECT_THROW(rt->start(), CheckError);
}

TEST(Runtime, InfeasiblePlanRefusesToStart) {
  ExecutionPlan plan = tiny_plan();
  plan.feasible = false;
  Harness h;
  auto rt = h.make(std::move(plan));
  EXPECT_THROW(rt->start(), CheckError);
}


// ---- chained vs calendar dispatch ----
//
// run_direct() (core/trial_engine.hpp) dispatches the Working⇄Checkpointing
// boundaries before the next failure or wall-time cap through
// ResilientAppRuntime::run_chain(), holding each next boundary in a local;
// Simulation::run() fires every one of them through the calendar. Both
// must run the same handlers in the same (time, seq) order.

/// A failure source on a calendar slot of its own, as the direct engine's
/// failure stream is, but scripted: each step fires at an absolute time,
/// publishes the next step, and then either delivers a severity-1 failure
/// (recording the phase it lands in) or does nothing else (a tick, which
/// lets a later step be published after a given boundary was).
class ScriptedFailures final : public CalendarClient {
 public:
  struct Step {
    double at;
    bool deliver;
  };

  ScriptedFailures(Simulation& sim, std::vector<Step> steps)
      : sim_{sim}, steps_{std::move(steps)}, slot_{sim.open_slot(*this, 0)} {}
  ~ScriptedFailures() { sim_.close_slot(slot_); }
  ScriptedFailures(const ScriptedFailures&) = delete;
  ScriptedFailures& operator=(const ScriptedFailures&) = delete;

  void attach(ResilientAppRuntime& runtime) { runtime_ = &runtime; }
  void start() { publish_next(); }
  [[nodiscard]] CalendarSlot slot() const { return slot_; }
  [[nodiscard]] const std::vector<ResilientAppRuntime::Phase>& hit_phases() const {
    return hit_phases_;
  }

  void on_calendar(std::uint32_t) override {
    const bool deliver = steps_[next_ - 1].deliver;
    publish_next();
    if (!deliver) return;
    hit_phases_.push_back(runtime_->phase());
    runtime_->on_failure(Failure{sim_.now(), 1});
  }

 private:
  void publish_next() {
    if (next_ == steps_.size()) return;
    sim_.publish_after(slot_, TimePoint::at(Duration::seconds(steps_[next_++].at)) - sim_.now());
  }

  Simulation& sim_;
  std::vector<Step> steps_;
  CalendarSlot slot_;
  std::size_t next_{0};
  ResilientAppRuntime* runtime_{nullptr};
  std::vector<ResilientAppRuntime::Phase> hit_phases_;
};

struct DispatchRun {
  ExecutionResult result;
  std::uint64_t events{0};
  std::vector<ResilientAppRuntime::Phase> hit_phases;
  std::vector<PhaseSpan> spans;
};

/// Run \p plan against \p steps on a fresh Simulation whose seq
/// counter starts at \p first_seq: through run_direct() when \p chained,
/// through Simulation::run() otherwise. \p publish_first publishes the
/// first step before the runtime starts (its seq precedes every boundary's).
/// \p timeline records the run's phase spans.
DispatchRun run_dispatch(bool chained, const ExecutionPlan& plan,
                         const std::vector<ScriptedFailures::Step>& steps,
                         bool publish_first, std::uint64_t first_seq = 0,
                         bool timeline = false) {
  Simulation sim;
  SeqCounterTestPeer::preset(sim, first_seq);
  DispatchRun run;
  bool finished = false;
  ScriptedFailures failures{sim, steps};
  ResilientAppRuntime rt{sim, plan, 1, [&](const ExecutionResult& r) {
                           run.result = r;
                           finished = true;
                           sim.request_stop();
                         }};
  failures.attach(rt);
  if (timeline) rt.enable_timeline();
  if (publish_first) failures.start();
  rt.start();
  if (!publish_first) failures.start();
  if (chained) {
    run_direct(sim, rt, failures.slot());
  } else {
    sim.run();
  }
  EXPECT_TRUE(finished);
  run.events = sim.events_processed();
  run.hit_phases = failures.hit_phases();
  if (rt.timeline() != nullptr) run.spans = rt.timeline()->spans();
  return run;
}

void expect_same_dispatch(const DispatchRun& a, const DispatchRun& b) {
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.wall_time, b.result.wall_time);
  EXPECT_EQ(a.result.efficiency, b.result.efficiency);
  EXPECT_EQ(a.result.failures_seen, b.result.failures_seen);
  EXPECT_EQ(a.result.rollbacks, b.result.rollbacks);
  EXPECT_EQ(a.result.checkpoints_completed, b.result.checkpoints_completed);
  EXPECT_EQ(a.result.time_working, b.result.time_working);
  EXPECT_EQ(a.result.time_checkpointing, b.result.time_checkpointing);
  EXPECT_EQ(a.result.time_restarting, b.result.time_restarting);
  EXPECT_EQ(a.result.rework, b.result.rework);
  EXPECT_EQ(a.result.node_seconds, b.result.node_seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.hit_phases, b.hit_phases);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].kind, b.spans[i].kind) << "span " << i;
    EXPECT_EQ(a.spans[i].start, b.spans[i].start) << "span " << i;
    EXPECT_EQ(a.spans[i].length, b.spans[i].length) << "span " << i;
  }
}

using Phase = ResilientAppRuntime::Phase;

TEST(RuntimeChain, FailureTiedWithABoundaryAndPublishedFirstFiresFirst) {
  // Boundaries: work ends at 10, checkpoint at 12, work at 22. The failure
  // at 22 was published before the runtime started, so its seq is smaller
  // than the boundary's: the chain run 10 -> 12 must stop at that boundary
  // and the failure lands in Working.
  const std::vector<ScriptedFailures::Step> steps{{22.0, true}};
  const DispatchRun chained = run_dispatch(true, tiny_plan(), steps, true);
  const DispatchRun calendar = run_dispatch(false, tiny_plan(), steps, true);
  expect_same_dispatch(chained, calendar);
  EXPECT_EQ(chained.hit_phases, std::vector<Phase>{Phase::kWorking});
  EXPECT_EQ(chained.result.rollbacks, 1U);
  EXPECT_DOUBLE_EQ(chained.result.rework.to_seconds(), 10.0);
}

TEST(RuntimeChain, FailureTiedWithABoundaryAndPublishedLaterFiresSecond) {
  // A tick at 15 publishes the failure at 22 after the boundary at 22 was
  // drawn (at 12): the boundary fires first and the failure interrupts the
  // checkpoint that boundary started, zero seconds in.
  const std::vector<ScriptedFailures::Step> steps{{15.0, false}, {22.0, true}};
  const DispatchRun chained = run_dispatch(true, tiny_plan(), steps, false);
  const DispatchRun calendar = run_dispatch(false, tiny_plan(), steps, false);
  expect_same_dispatch(chained, calendar);
  EXPECT_EQ(chained.hit_phases, std::vector<Phase>{Phase::kCheckpointing});
}

TEST(RuntimeChain, WallTimeCapTiedWithABoundaryStopsTheChain) {
  // The cap is published at start(), before the first boundary: at t = 22
  // it precedes the work boundary there, so the run aborts in Working.
  ExecutionPlan plan = tiny_plan();
  plan.max_wall_time = Duration::seconds(22.0);
  const std::vector<ScriptedFailures::Step> steps{{500.0, true}};
  const DispatchRun chained = run_dispatch(true, plan, steps, false);
  const DispatchRun calendar = run_dispatch(false, plan, steps, false);
  expect_same_dispatch(chained, calendar);
  EXPECT_FALSE(chained.result.completed);
  EXPECT_DOUBLE_EQ(chained.result.wall_time.to_seconds(), 22.0);
  EXPECT_EQ(chained.result.checkpoints_completed, 1U);
  EXPECT_DOUBLE_EQ(chained.result.time_working.to_seconds(), 20.0);
}

TEST(RuntimeChain, SeqRenumberingInsideAChainKeepsTheTieOrder) {
  // The failure at 22 takes seq 2^32 - 3, the first boundary 2^32 - 2 and
  // the boundary at 12 2^32 - 1. The boundary at 22 is drawn inside a
  // chain (when 12 fires) and takes seq 2^32, past where a 32-bit seq
  // would wrap or need renumbering. It still orders after the failure's
  // seq, so the failure must land in Working, exactly as calendar dispatch
  // has it.
  const std::uint64_t first_seq = (std::uint64_t{1} << 32) - 3;
  const std::vector<ScriptedFailures::Step> steps{{22.0, true}, {40.0, true}};
  const DispatchRun chained = run_dispatch(true, tiny_plan(), steps, true, first_seq);
  const DispatchRun calendar = run_dispatch(false, tiny_plan(), steps, true, first_seq);
  expect_same_dispatch(chained, calendar);
  ASSERT_EQ(chained.hit_phases.size(), 2U);
  EXPECT_EQ(chained.hit_phases.front(), Phase::kWorking);
  // Started at seq 0, the run agrees with the one that crosses 2^32.
  expect_same_dispatch(chained, run_dispatch(true, tiny_plan(), steps, true));
}

TEST(RuntimeChain, ChainedAndCalendarDispatchAgreeOnAFailureStorm) {
  // Failures in every phase, including ties with boundaries on both sides
  // and a failure during the restart, with the counter crossing 2^32
  // midway through the run. A run that records a timeline chains too
  // (the spans are written by the shared boundary arithmetic) and must
  // record the same spans.
  std::vector<ScriptedFailures::Step> steps;
  for (const double t : {5.0, 11.0, 22.0, 25.0, 26.0, 47.0, 60.0, 60.0, 83.5, 99.0}) {
    steps.push_back({t, true});
  }
  for (const std::uint64_t first_seq : {std::uint64_t{0}, (std::uint64_t{1} << 32) - 21}) {
    for (const bool publish_first : {true, false}) {
      for (const bool timeline : {false, true}) {
        const DispatchRun chained =
            run_dispatch(true, tiny_plan(), steps, publish_first, first_seq, timeline);
        const DispatchRun calendar =
            run_dispatch(false, tiny_plan(), steps, publish_first, first_seq, timeline);
        expect_same_dispatch(chained, calendar);
        EXPECT_EQ(chained.result.failures_seen, steps.size());
        EXPECT_EQ(chained.spans.empty(), !timeline);
      }
    }
  }
}

}  // namespace
}  // namespace xres
