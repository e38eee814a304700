// Tests for the PFS transfer service and machine-wide PFS contention: the
// flat model's contended PFS (a PfsDevice with unbounded admission) wired
// through the runtime and the workload engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/workload_engine.hpp"
#include "runtime/app_runtime.hpp"
#include "runtime/transfer_service.hpp"
#include "sim/pfs_device.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

Bandwidth bps(double v) { return Bandwidth::bytes_per_second(v); }

constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();

TEST(PfsDeviceTransferService, NominalDurationHoldsUncontended) {
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(400.0)};
  PfsDeviceTransferService service{device, bps(100.0)};
  double done_at = -1.0;
  TransferRequest request;
  request.nominal = Duration::seconds(9.0);
  service.begin(request, [&] { done_at = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(done_at, 9.0, 1e-9);
  // The device's divergence accounting sees the uncontended transfer.
  EXPECT_NEAR(device.measured_seconds(), 9.0, 1e-9);
  EXPECT_DOUBLE_EQ(device.nominal_seconds(), 9.0);
}

ExecutionPlan pfs_checkpoint_plan() {
  ExecutionPlan plan;
  plan.kind = TechniqueKind::kCheckpointRestart;
  plan.app = AppSpec{app_type_by_name("A32"), 10, 100};
  plan.physical_nodes = 10;
  plan.baseline = Duration::seconds(100.0);
  plan.work_target = Duration::seconds(100.0);
  plan.checkpoint_quantum = Duration::seconds(10.0);
  plan.levels = {CheckpointLevelSpec{Duration::seconds(2.0), Duration::seconds(3.0), 3,
                                     /*uses_shared_pfs=*/true}};
  plan.nesting = {1};
  plan.failure_rate = Rate::zero();
  return plan;
}

/// Two runtimes checkpointing simultaneously through a single-gateway PFS:
/// both checkpoints take twice their nominal time.
TEST(PfsContention, ConcurrentCheckpointsStretch) {
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(100.0)};  // one gateway
  PfsDeviceTransferService service{device, bps(100.0)};

  ExecutionResult r1;
  ExecutionResult r2;
  ResilientAppRuntime a{sim, pfs_checkpoint_plan(), 1,
                        [&](const ExecutionResult& r) { r1 = r; }};
  ResilientAppRuntime b{sim, pfs_checkpoint_plan(), 2,
                        [&](const ExecutionResult& r) { r2 = r; }};
  a.set_pfs_transfer_service(&service);
  b.set_pfs_transfer_service(&service);
  a.start();
  b.start();
  sim.run();

  // In lockstep, every checkpoint is contended: 9 checkpoints x 4 s
  // instead of x 2 s -> wall 136 s for both.
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_DOUBLE_EQ(r1.wall_time.to_seconds(), 136.0);
  EXPECT_DOUBLE_EQ(r2.wall_time.to_seconds(), 136.0);
  EXPECT_DOUBLE_EQ(r1.time_checkpointing.to_seconds(), 36.0);
}

TEST(PfsContention, SoloRuntimeUnaffected) {
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(100.0)};
  PfsDeviceTransferService service{device, bps(100.0)};

  ExecutionResult result;
  ResilientAppRuntime runtime{sim, pfs_checkpoint_plan(), 1,
                              [&](const ExecutionResult& r) { result = r; }};
  runtime.set_pfs_transfer_service(&service);
  runtime.start();
  sim.run();
  EXPECT_DOUBLE_EQ(result.wall_time.to_seconds(), 118.0);  // same as uncontended
}

WorkloadConfig contention_workload() {
  WorkloadConfig wconfig;
  wconfig.machine_nodes = 1000;
  wconfig.arrival_count = 15;
  wconfig.mean_interarrival = Duration::hours(1.0);
  wconfig.size_fractions = {0.10, 0.20};
  wconfig.baseline_hours = {3.0, 6.0};
  return wconfig;
}

WorkloadEngineConfig contention_engine() {
  WorkloadEngineConfig config;
  config.machine = MachineSpec::testbed(1000);
  config.policy = TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart);
  config.resilience.node_mtbf = Duration::years(1.0);
  return config;
}

TEST(PfsContention, WorkloadEngineTogglesCleanly) {
  // The same pattern with contention modeling on cannot drop fewer jobs,
  // and accounting invariants must hold either way.
  const ArrivalPattern pattern = generate_pattern(contention_workload(), 21, 0);
  WorkloadEngineConfig config = contention_engine();

  const WorkloadRunResult without = run_workload(config, pattern);
  config.pfs_gateways = 1;
  const WorkloadRunResult with = run_workload(config, pattern);

  EXPECT_EQ(with.completed + with.dropped, with.total_jobs);
  EXPECT_GE(with.dropped, without.dropped);
  if (with.completed_slowdown.count > 0 && without.completed_slowdown.count > 0) {
    EXPECT_GE(with.completed_slowdown.mean, without.completed_slowdown.mean - 1e-9);
  }
  // Only the contended run goes through the device.
  EXPECT_EQ(without.pfs_transfers, 0U);
  EXPECT_GT(with.pfs_transfers, 0U);
  EXPECT_GE(with.pfs_measured_s, with.pfs_nominal_s);
}

TEST(PfsContention, ContendedResultsArePinned) {
  // Exact results of one small contended pattern, recorded from the
  // dedicated processor-sharing channel the flat model used before it was
  // folded into PfsDevice: the fold must reproduce them bit for bit. The
  // uncontended slowdown mean is 0x1.0095d3b645473p+0, so both pins see the
  // contention; 2 gateways also separates the per-application cap
  // (B_N x N_S) from the aggregate.
  struct Pin {
    std::uint32_t gateways;
    double slowdown_mean;
  };
  const ArrivalPattern pattern = generate_pattern(contention_workload(), 21, 0);
  for (const Pin pin : {Pin{1, 0x1.00b1b0e0bcc83p+0}, Pin{2, 0x1.009d36261a184p+0}}) {
    WorkloadEngineConfig config = contention_engine();
    config.pfs_gateways = pin.gateways;
    const WorkloadRunResult r = run_workload(config, pattern);
    EXPECT_EQ(r.dropped, 0U) << pin.gateways;
    EXPECT_EQ(r.completed, 21U) << pin.gateways;
    EXPECT_EQ(r.completed_slowdown.mean, pin.slowdown_mean) << pin.gateways;
    EXPECT_EQ(r.makespan.to_seconds(), 0x1.1cf093ba245c9p+16) << pin.gateways;  // 72944.58 s
  }
}

TEST(PfsContention, GatewaysRejectedOnNonFlatPlatform) {
  const ArrivalPattern pattern = generate_pattern(contention_workload(), 21, 0);
  WorkloadEngineConfig config = contention_engine();
  config.machine.platform.model = PlatformModelKind::kFattree;
  config.pfs_gateways = 1;
  try {
    (void)run_workload(config, pattern);
    FAIL() << "pfs_gateways on a fat-tree platform must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("pfs_gateways"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace xres
