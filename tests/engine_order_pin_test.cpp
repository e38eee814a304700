// Engine-order pins for the workload engine. Every value below was recorded
// from the implementation that scheduled each phase boundary as its own
// event-queue entry; any change to how phases are scheduled must reproduce
// them bit for bit. The checkpoint_cost_seconds histogram sum is the most
// order-sensitive pin: it is a floating-point sum whose addition order is
// the interleaving of checkpoint completions across applications.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/workload_engine.hpp"
#include "obs/trial_obs.hpp"

namespace xres {
namespace {

struct Observed {
  std::uint32_t dropped;
  std::uint32_t completed;
  double makespan_s;
  double slowdown_mean;
  std::uint64_t sim_events;
  double checkpoint_cost_sum;
};

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

Observed observe_run(WorkloadEngineConfig config, const ArrivalPattern& pattern) {
  obs::TrialObs trial_obs;
  trial_obs.enable_metrics();
  config.obs = &trial_obs;
  const WorkloadRunResult r = run_workload(config, pattern);
  const obs::BuiltinMetrics& m = obs::builtin_metrics();
  return Observed{r.dropped,
                  r.completed,
                  r.makespan.to_seconds(),
                  r.completed_slowdown.mean,
                  trial_obs.metrics()->counter(m.sim_events),
                  trial_obs.metrics()->histogram(m.checkpoint_cost_seconds).sum};
}

void expect_pinned(const Observed& got, const Observed& want, const std::string& label) {
  EXPECT_EQ(got.dropped, want.dropped) << label;
  EXPECT_EQ(got.completed, want.completed) << label;
  EXPECT_EQ(got.makespan_s, want.makespan_s) << label << ": " << hex(got.makespan_s);
  EXPECT_EQ(got.slowdown_mean, want.slowdown_mean)
      << label << ": " << hex(got.slowdown_mean);
  EXPECT_EQ(got.sim_events, want.sim_events) << label;
  EXPECT_EQ(got.checkpoint_cost_sum, want.checkpoint_cost_sum)
      << label << ": " << hex(got.checkpoint_cost_sum);
}

/// An oversubscribed 1000-node testbed: enough arrivals that every
/// scheduler queues and drops, and a 1-year node MTBF so failures
/// interrupt phase chains.
WorkloadConfig oversubscribed_workload() {
  WorkloadConfig config;
  config.machine_nodes = 1000;
  config.arrival_count = 24;
  config.mean_interarrival = Duration::hours(0.5);
  config.size_fractions = {0.05, 0.10, 0.20, 0.40};
  config.baseline_hours = {3.0, 6.0};
  return config;
}

WorkloadEngineConfig testbed_engine(TechniquePolicy policy, SchedulerKind scheduler) {
  WorkloadEngineConfig config;
  config.machine = MachineSpec::testbed(1000);
  config.resilience.node_mtbf = Duration::years(1.0);
  config.policy = policy;
  config.scheduler = scheduler;
  config.seed = 5;
  return config;
}

TEST(EngineOrderPin, FlatSchedulersByPolicy) {
  struct Pin {
    SchedulerKind scheduler;
    bool selection;
    Observed want;
  };
  const Pin pins[] = {
      {SchedulerKind::kFcfs, false,
       {14, 13, 0x1.420eec62873a1p+16, 0x1.093ad4c9578fcp+0, 1590, 0x1.e399cbddbdc27p+8}},
      {SchedulerKind::kRandom, false,
       {11, 16, 0x1.0a18666f826fap+16, 0x1.091c378e2ec68p+0, 1506, 0x1.cf3362c779f67p+8}},
      {SchedulerKind::kSlack, false,
       {8, 19, 0x1.06ef506bcf1d5p+16, 0x1.07758c9321e7bp+0, 1495, 0x1.c66695a6c9c87p+8}},
      {SchedulerKind::kFcfs, true,
       {14, 13, 0x1.3bb966af28738p+16, 0x1.012c5f8460098p+0, 2052, 0x1.0b53f3e4df957p+9}},
      {SchedulerKind::kRandom, true,
       {10, 17, 0x1.06884b6a9a184p+16, 0x1.00575e96d3228p+0, 1948, 0x1.05c9ffd431947p+9}},
      {SchedulerKind::kSlack, true,
       {7, 20, 0x1.0099cab870572p+16, 0x1.005136bab7458p+0, 1909, 0x1.e68b72fee2f8ep+8}},
  };
  const ArrivalPattern pattern = generate_pattern(oversubscribed_workload(), 17, 0);
  for (const Pin& pin : pins) {
    const TechniquePolicy policy =
        pin.selection ? TechniquePolicy::selection()
                      : TechniquePolicy::fixed_technique(TechniqueKind::kParallelRecovery);
    const std::string label =
        std::string{to_string(pin.scheduler)} + (pin.selection ? "/selection" : "/PR");
    expect_pinned(observe_run(testbed_engine(policy, pin.scheduler), pattern), pin.want,
                  label);
  }
}

TEST(EngineOrderPin, FattreeCheckpointRestartFourChannels) {
  // Shared-PFS phases go through the queued fat-tree device; the work
  // phases between them do not.
  WorkloadEngineConfig config = testbed_engine(
      TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart),
      SchedulerKind::kSlack);
  config.machine.platform.model = PlatformModelKind::kFattree;
  config.machine.platform.fattree.pfs_channels = 4;
  const ArrivalPattern pattern = generate_pattern(oversubscribed_workload(), 17, 1);
  expect_pinned(observe_run(config, pattern),
                {8, 22, 0x1.0a1c2bb6bf87fp+16, 0x1.00f4fb0c01abcp+0, 764,
                 0x1.322aa1e18e28fp+10},
                "fattree/CR");
}

TEST(EngineOrderPin, IdenticalJobsTieAtEveryPhaseBoundary) {
  // Two identical jobs mapped at the same instant: until the first failure
  // separates them, every work/checkpoint boundary of one coincides exactly
  // with the other's, so only the (time, insertion order) tie-break decides
  // which application's handler runs first.
  ArrivalPattern pattern;
  for (std::uint64_t id = 1; id <= 2; ++id) {
    Job job;
    job.id = JobId{id};
    job.spec = AppSpec::from_baseline(app_type_by_name("B32"), 200, Duration::hours(6.0));
    job.arrival = TimePoint::origin();
    job.deadline = TimePoint::at(Duration::hours(60.0));
    pattern.jobs.push_back(job);
  }
  const WorkloadEngineConfig config = testbed_engine(
      TechniquePolicy::fixed_technique(TechniqueKind::kMultilevel), SchedulerKind::kFcfs);
  expect_pinned(observe_run(config, pattern),
                {0, 2, 0x1.51f7555d32999p+14, 0x1.005a8442241bp+0, 364,
                 0x1.dd5574ca663f8p+5},
                "tie");
}

}  // namespace
}  // namespace xres
