// Tests for the pluggable platform layer: Eq. 3/5/6 boundary cases pinned
// to hand-computed constants, flat/fattree convergence and divergence, the
// queued PFS device, topology-aware allocation, and the `--platform.*`
// parameter materialization/validation path.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "platform/allocator.hpp"
#include "platform/fattree.hpp"
#include "platform/platform_model.hpp"
#include "platform/spec.hpp"
#include "platform/transfer.hpp"
#include "sim/pfs_device.hpp"
#include "study/platform_params.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

Bandwidth bps(double v) { return Bandwidth::bytes_per_second(v); }

/// A machine with clean round numbers: N_m = 100 B, B_M = 20 B/s,
/// B_N = 10 B/s, N_S = 4, L = 0.
MachineSpec tiny_machine(double latency_us = 0.0) {
  MachineSpec machine = MachineSpec::testbed(64);
  machine.node.memory = DataSize::bytes(100.0);
  machine.node.memory_bandwidth = bps(20.0);
  machine.network.bandwidth = bps(10.0);
  machine.network.switch_connections = 4;
  machine.network.latency = Duration::microseconds(latency_us);
  return machine;
}

// --- Eq. 3/5/6 boundary cases, hand-computed ------------------------------

TEST(TransferEquations, Eq3OneNodeApplication) {
  // T = (N_m / B_N) · (N_a / N_S) = (100/10) · (1/4) = 2.5 s.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 1, m.network).to_seconds(), 2.5);
}

TEST(TransferEquations, Eq3AppAtAndBelowChannelCount) {
  const MachineSpec m = tiny_machine();
  // N_a == N_S: the contention factor is exactly 1 → N_m / B_N = 10 s.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 4, m.network).to_seconds(), 10.0);
  // N_a = 2 < N_S: half the full-leaf time.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 2, m.network).to_seconds(), 5.0);
  // N_a = 8 = 2 N_S: contention doubles the time.
  EXPECT_DOUBLE_EQ(
      pfs_checkpoint_time(m.node.memory, 8, m.network).to_seconds(), 20.0);
}

TEST(TransferEquations, Eq5LocalMemory) {
  // T = N_m / B_M = 100 / 20 = 5 s, independent of N_a.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      local_memory_checkpoint_time(m.node.memory, m.node).to_seconds(), 5.0);
}

TEST(TransferEquations, Eq6PartnerCopyZeroLatency) {
  // T = 2 (T_L1 + L + N_m / B_M) with L = 0: 2 (5 + 0 + 5) = 20 s.
  const MachineSpec m = tiny_machine();
  EXPECT_DOUBLE_EQ(
      partner_copy_checkpoint_time(m.node.memory, m.node, m.network).to_seconds(),
      20.0);
}

TEST(TransferEquations, Eq6PartnerCopyWithLatency) {
  // L = 0.5 s → 2 (5 + 0.5 + 5) = 21 s.
  const MachineSpec m = tiny_machine(0.5 * 1e6);
  EXPECT_DOUBLE_EQ(
      partner_copy_checkpoint_time(m.node.memory, m.node, m.network).to_seconds(),
      21.0);
}

// --- FlatPlatformModel: bit-identical delegation --------------------------

TEST(FlatPlatformModel, DelegatesToClosedForms) {
  const MachineSpec m = tiny_machine(0.5 * 1e6);
  const FlatPlatformModel model{m};
  for (std::uint32_t nodes : {1U, 2U, 4U, 8U, 64U}) {
    EXPECT_EQ(model.pfs_transfer_time(m.node.memory, nodes).to_seconds(),
              pfs_checkpoint_time(m.node.memory, nodes, m.network).to_seconds());
  }
  EXPECT_EQ(model.local_memory_time(m.node.memory).to_seconds(),
            local_memory_checkpoint_time(m.node.memory, m.node).to_seconds());
  EXPECT_EQ(model.partner_copy_time(m.node.memory).to_seconds(),
            partner_copy_checkpoint_time(m.node.memory, m.node, m.network)
                .to_seconds());
  // Effective bandwidth is B_N · N_S regardless of application size.
  EXPECT_DOUBLE_EQ(model.pfs_effective_bandwidth(1).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(model.pfs_effective_bandwidth(64).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(model.pfs_rate_cap_for_range(17, 3).to_bytes_per_second(), 40.0);
}

TEST(PlatformFactory, SelectsModelByKind) {
  MachineSpec m = tiny_machine();
  EXPECT_STREQ(make_platform_model(m)->name(), "flat");
  m.platform.model = PlatformModelKind::kFattree;
  EXPECT_STREQ(make_platform_model(m)->name(), "fattree");
}

TEST(PlatformSpec, DescribeSuffixOnlyWhenNonFlat) {
  // The flat default must leave MachineSpec::describe() byte-identical to
  // the pre-topology rendering (artifact compatibility).
  MachineSpec m = MachineSpec::exascale();
  const std::string flat = m.describe();
  EXPECT_EQ(flat.find("platform="), std::string::npos);
  m.platform.model = PlatformModelKind::kFattree;
  EXPECT_NE(m.describe().find("platform=fattree"), std::string::npos);
}

// --- Fat tree: convergence and divergence vs. Eq. 3 -----------------------

TEST(FatTree, ConvergesToFlatWhenUncongested) {
  // Contiguous N_a ≥ N_S: injection ≥ N_S · B_N, the device aggregate
  // binds, and the fat-tree time equals Eq. 3 within 1% (here exactly).
  MachineSpec m = MachineSpec::exascale();
  m.platform.model = PlatformModelKind::kFattree;
  const FatTreePlatformModel model{m};
  for (std::uint32_t nodes : {12U, 24U, 1200U, 60000U}) {
    const double flat =
        pfs_checkpoint_time(m.node.memory, nodes, m.network).to_seconds();
    const double tree = model.pfs_transfer_time(m.node.memory, nodes).to_seconds();
    EXPECT_NEAR(tree, flat, flat * 0.01) << nodes << " nodes";
  }
}

TEST(FatTree, SmallAppIsInjectionBound) {
  // N_a < N_S: the application's own links bind before the device, so it
  // is N_S / N_a slower than Eq. 3 — the emergent divergence.
  MachineSpec m = MachineSpec::exascale();
  m.platform.model = PlatformModelKind::kFattree;
  const FatTreePlatformModel model{m};
  const double flat =
      pfs_checkpoint_time(m.node.memory, 3, m.network).to_seconds();
  const double tree = model.pfs_transfer_time(m.node.memory, 3).to_seconds();
  EXPECT_NEAR(tree / flat, 12.0 / 3.0, 1e-9);
}

TEST(FatTree, TaperCapsUpperLevels) {
  // 64 nodes, radix 4, taper 0.5, N_S = 4, B_N = 10. Uplink levels cover
  // subtrees strictly smaller than the machine (the root's hop to the PFS
  // is the device): level 1 uplink 4·10·1 = 40, level 2 = 20.
  // A contiguous 16-node app fills one level-2 subtree: injection =
  // min(16·10, 4·40, 1·20) = 20 B/s.
  MachineSpec m = tiny_machine();
  m.platform.model = PlatformModelKind::kFattree;
  m.platform.fattree.leaf_radix = 4;
  m.platform.fattree.taper = 0.5;
  const FatTreeTopology topo{64, m.network, m.platform.fattree};
  EXPECT_EQ(topo.levels(), 2U);
  EXPECT_DOUBLE_EQ(topo.uplink(1).to_bytes_per_second(), 40.0);
  EXPECT_DOUBLE_EQ(topo.uplink(2).to_bytes_per_second(), 20.0);
  EXPECT_EQ(topo.spanned_subtrees(1, 0, 16), 4U);
  EXPECT_EQ(topo.spanned_subtrees(2, 0, 16), 1U);
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(0, 16).to_bytes_per_second(), 20.0);
}

TEST(FatTree, PlacementChangesRateCap) {
  // Same machine as above: an 8-node app packed inside one level-2 subtree
  // drains through that subtree's 20 B/s uplink; straddling two level-2
  // subtrees doubles the available level-2 capacity to 40.
  MachineSpec m = tiny_machine();
  m.platform.model = PlatformModelKind::kFattree;
  m.platform.fattree.leaf_radix = 4;
  m.platform.fattree.taper = 0.5;
  const FatTreeTopology topo{64, m.network, m.platform.fattree};
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(0, 8).to_bytes_per_second(), 20.0);
  EXPECT_DOUBLE_EQ(topo.injection_bandwidth(12, 8).to_bytes_per_second(), 40.0);
}

// --- Queued PFS device ----------------------------------------------------

TEST(PfsDevice, FifoAdmissionAndFairShare) {
  // 2 slots, 20 B/s aggregate. Three 100-byte transfers, each rate-capped
  // at 10: A and B are admitted (10 B/s each), C waits. A and B complete at
  // 10 s; C then runs alone at its 10 B/s cap and completes at 20 s.
  Simulation sim;
  PfsDevice device{sim, 2, bps(20.0)};
  std::vector<double> done(3, -1.0);
  for (int i = 0; i < 3; ++i) {
    device.begin_transfer(DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
                          [&done, i, &sim] { done[i] = sim.now().to_seconds(); });
  }
  EXPECT_EQ(device.in_service(), 2U);
  EXPECT_EQ(device.queued(), 1U);
  sim.run();
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
  EXPECT_NEAR(done[2], 20.0, 1e-6);
  EXPECT_EQ(device.completed_transfers(), 3U);
  // Divergence accounting: 10 + 10 + 20 measured vs. 3 × 10 nominal.
  EXPECT_NEAR(device.measured_seconds(), 40.0, 1e-6);
  EXPECT_NEAR(device.nominal_seconds(), 30.0, 1e-6);
}

TEST(PfsDevice, UncappedTransfersShareAggregate) {
  // 2 slots, 20 B/s aggregate; two uncapped transfers run at 10 each, and
  // the survivor speeds to 20 when the first completes.
  Simulation sim;
  PfsDevice device{sim, 2, bps(20.0)};
  double small_done = -1.0;
  double big_done = -1.0;
  device.begin_transfer(DataSize::bytes(300.0), bps(1e9), Duration::seconds(1.0),
                        [&] { big_done = sim.now().to_seconds(); });
  device.begin_transfer(DataSize::bytes(100.0), bps(1e9), Duration::seconds(1.0),
                        [&] { small_done = sim.now().to_seconds(); });
  sim.run();
  // Small: 100 B at 10 B/s → 10 s. Big: 100 B by t=10, then 200 B at 20.
  EXPECT_NEAR(small_done, 10.0, 1e-6);
  EXPECT_NEAR(big_done, 20.0, 1e-6);
}

TEST(PfsDevice, CancelQueuedAndActive) {
  Simulation sim;
  PfsDevice device{sim, 1, bps(10.0)};
  bool active_done = false;
  bool queued_done = false;
  double survivor_done = -1.0;
  const auto active_id = device.begin_transfer(
      DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
      [&] { active_done = true; });
  const auto survivor_id = device.begin_transfer(
      DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
      [&] { survivor_done = sim.now().to_seconds(); });
  const auto queued_id = device.begin_transfer(
      DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
      [&] { queued_done = true; });
  (void)survivor_id;
  EXPECT_TRUE(device.cancel(queued_id));
  EXPECT_TRUE(device.cancel(active_id));
  EXPECT_FALSE(device.cancel(active_id));  // already cancelled
  sim.run();
  EXPECT_FALSE(active_done);
  EXPECT_FALSE(queued_done);
  // The survivor was admitted when the active transfer was cancelled and
  // ran the full 100 bytes at 10 B/s from t = 0.
  EXPECT_NEAR(survivor_done, 10.0, 1e-6);
  EXPECT_EQ(device.completed_transfers(), 1U);
}

// With unbounded admission and a common rate cap the device is an
// egalitarian processor-sharing queue: the flat model's contended PFS.

constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();

TEST(PfsDevice, LoneTransferRunsAtPerStreamCap) {
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(100.0)};
  double done_at = -1.0;
  device.begin_transfer(DataSize::bytes(50.0), bps(10.0), Duration::seconds(5.0),
                        [&] { done_at = sim.now().to_seconds(); });
  EXPECT_EQ(device.in_service(), 1U);
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);  // 50 bytes at 10 B/s
  EXPECT_EQ(device.completed_transfers(), 1U);
}

TEST(PfsDevice, CapacitySharedBeyondSaturation) {
  // Aggregate 20, cap 10: two transfers would still run at 10 each; four
  // run at 5, all admitted at once (no queueing).
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(20.0)};
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    device.begin_transfer(DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
                          [&] { done.push_back(sim.now().to_seconds()); });
  }
  EXPECT_EQ(device.in_service(), 4U);
  EXPECT_EQ(device.queued(), 0U);
  sim.run();
  ASSERT_EQ(done.size(), 4U);
  // All four start together and share equally throughout: 4 x 100 bytes /
  // 20 B/s = 20 s each.
  for (double t : done) EXPECT_NEAR(t, 20.0, 1e-9);
}

TEST(PfsDevice, RatesRecomputeOnCompletion) {
  // Two transfers of different sizes at aggregate 10 (cap 10): both run at
  // 5 until the small one finishes, then the big one speeds to 10.
  // Small: 50 bytes -> t = 10. Big: 150 bytes: 50 done by t=10, remaining
  // 100 at 10 B/s -> t = 20.
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(10.0)};
  double small_done = -1.0;
  double big_done = -1.0;
  device.begin_transfer(DataSize::bytes(150.0), bps(10.0), Duration::seconds(15.0),
                        [&] { big_done = sim.now().to_seconds(); });
  device.begin_transfer(DataSize::bytes(50.0), bps(10.0), Duration::seconds(5.0),
                        [&] { small_done = sim.now().to_seconds(); });
  sim.run();
  EXPECT_NEAR(small_done, 10.0, 1e-9);
  EXPECT_NEAR(big_done, 20.0, 1e-9);
}

TEST(PfsDevice, LateArrivalSlowsInFlightTransfer) {
  // Transfer A (100 bytes) alone at 10 B/s; at t=5 transfer B (25 bytes)
  // arrives, both drop to 5 B/s. B finishes at t=10; A has 25 left ->
  // finishes at t=12.5.
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(10.0)};
  double a_done = -1.0;
  double b_done = -1.0;
  device.begin_transfer(DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
                        [&] { a_done = sim.now().to_seconds(); });
  sim.schedule_at(TimePoint::at(Duration::seconds(5.0)), [&] {
    device.begin_transfer(DataSize::bytes(25.0), bps(10.0), Duration::seconds(2.5),
                          [&] { b_done = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_NEAR(b_done, 10.0, 1e-9);
  EXPECT_NEAR(a_done, 12.5, 1e-9);
}

TEST(PfsDevice, CancelFreesBandwidth) {
  // A and B share 10 B/s; at t=5, B is cancelled and A speeds back up.
  // A: 100 bytes; 25 done by t=5, 75 at 10 B/s -> t = 12.5.
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(10.0)};
  double a_done = -1.0;
  bool b_done = false;
  device.begin_transfer(DataSize::bytes(100.0), bps(10.0), Duration::seconds(10.0),
                        [&] { a_done = sim.now().to_seconds(); });
  const auto b = device.begin_transfer(DataSize::bytes(500.0), bps(10.0),
                                       Duration::seconds(50.0), [&] { b_done = true; });
  sim.schedule_at(TimePoint::at(Duration::seconds(5.0)), [&] {
    EXPECT_TRUE(device.cancel(b));
    EXPECT_FALSE(device.cancel(b));  // second cancel is a no-op
  });
  sim.run();
  EXPECT_NEAR(a_done, 12.5, 1e-9);
  EXPECT_FALSE(b_done);
}

TEST(PfsDevice, ZeroSizeTransferCompletesImmediately) {
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(10.0)};
  bool done = false;
  device.begin_transfer(DataSize::zero(), bps(10.0), Duration::zero(), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 0.0);
}

TEST(PfsDevice, CompletesAtLargeClockValues) {
  // At t = 1e9 s the clock's ulp (~1.2e-7 s) dwarfs a nanosecond. The tiny
  // transfer's ETA (1e-8 s) rounds away, so its completion event fires at
  // the same timestamp with 0.01 bytes still pending — far above the 1e-6
  // byte epsilon and the 1e-3 bytes a nanosecond carries at 1e6 B/s. Only
  // the ulp-scaled done-threshold retires it; without it the event would
  // re-fire at the same timestamp forever. The guarded run() bounds the
  // damage if that regresses.
  Simulation sim;
  PfsDevice device{sim, kUnbounded, bps(4e6)};
  const double t0 = 1e9;
  std::vector<double> done;
  sim.schedule_at(TimePoint::at(Duration::seconds(t0)), [&] {
    for (double bytes : {1e6, 2e6, 3e6, 0.01}) {
      device.begin_transfer(DataSize::bytes(bytes), bps(1e6), Duration::seconds(bytes / 1e6),
                            [&] { done.push_back(sim.now().to_seconds() - t0); });
    }
  });
  sim.run(/*max_events=*/1000);
  ASSERT_EQ(done.size(), 4U);
  EXPECT_EQ(device.completed_transfers(), 4U);
  EXPECT_EQ(sim.pending_events(), 0U);
  EXPECT_LT(sim.events_processed(), 20U);
  // Four transfers at 1e6 B/s each (aggregate 4e6 is never oversubscribed):
  // the tiny one finishes at its arrival, the rest at 1, 2 and 3 s.
  EXPECT_DOUBLE_EQ(done[0], 0.0);
  EXPECT_DOUBLE_EQ(done[1], 1.0);
  EXPECT_DOUBLE_EQ(done[2], 2.0);
  EXPECT_DOUBLE_EQ(done[3], 3.0);
}

// --- Topology-aware allocation --------------------------------------------

TEST(NodeAllocator, GroupedAllocationPrefersFewestGroups) {
  NodeAllocator alloc{36};
  ASSERT_TRUE(alloc.allocate(10).has_value());  // [0, 10)
  // Plain first fit would return [10, 14), which straddles leaf groups
  // [0,12) and [12,24); the grouped allocator aligns to the boundary.
  const auto range = alloc.allocate_grouped(4, 12);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 12U);
  EXPECT_EQ(range->count, 4U);
  alloc.validate();
}

TEST(NodeAllocator, GroupedFallsBackWhenNoAlignedFit) {
  NodeAllocator alloc{24};
  ASSERT_TRUE(alloc.allocate(2).has_value());   // [0, 2)
  // 22 free nodes in [2, 24): a 20-node request cannot avoid straddling,
  // and only start-of-block fits (20 > 12 remaining after the boundary).
  const auto range = alloc.allocate_grouped(20, 12);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 2U);
  alloc.validate();
}

TEST(NodeAllocator, GroupSizeOneIsFirstFit) {
  NodeAllocator alloc{16};
  const auto a = alloc.allocate_grouped(5, 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first, 0U);
}

// --- --platform.* materialization -----------------------------------------

TEST(PlatformParams, MaterializeAppliesAndValidates) {
  study::ParamSchema schema;
  study::add_platform_params(schema);
  study::ParamSet params{schema, "test"};
  params.set(study::kPlatformModelKey, "fattree");
  params.set(study::kPlatformRadixKey, "24");
  params.set(study::kPlatformTaperKey, "0.5");
  params.set(study::kPlatformPfsChannelsKey, "6");
  MachineSpec machine = MachineSpec::exascale();
  study::materialize_platform(machine, params);
  EXPECT_EQ(machine.platform.model, PlatformModelKind::kFattree);
  EXPECT_EQ(machine.platform.fattree.leaf_radix, 24U);
  EXPECT_DOUBLE_EQ(machine.platform.fattree.taper, 0.5);
  EXPECT_EQ(machine.platform.fattree.pfs_channels, 6U);
}

TEST(PlatformParams, BadModelNamesOffendingKey) {
  // Spec files and --set bypass per-option CLI validation; materialization
  // must still reject the value and name the key for the exit-2 diagnostic.
  study::ParamSchema schema;
  study::add_platform_params(schema);
  study::ParamSet params{schema, "test"};
  params.set(study::kPlatformModelKey, "hypercube");
  MachineSpec machine = MachineSpec::exascale();
  try {
    study::materialize_platform(machine, params);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("platform.model"), std::string::npos)
        << e.what();
  }
}

TEST(PlatformParams, DefaultsLeaveMachineFlat) {
  study::ParamSchema schema;
  study::add_platform_params(schema);
  const study::ParamSet params{schema, "test"};
  MachineSpec machine = MachineSpec::exascale();
  const std::string before = machine.describe();
  study::materialize_platform(machine, params);
  EXPECT_EQ(machine.platform.model, PlatformModelKind::kFlat);
  EXPECT_EQ(machine.describe(), before);
}

}  // namespace
}  // namespace xres
