#pragma once

/// \file transfer_service.hpp
/// How the runtime moves checkpoint/restart data through a shared PFS.
///
/// The base plan gives every checkpoint level a fixed nominal duration
/// (Eqs. 3, 5, 6), and by default the runtime takes those durations
/// literally. When the workload engine models a shared PFS — the fat-tree
/// platform's queued device, or the flat model's contended PFS
/// (`WorkloadEngineConfig::pfs_gateways`) — PFS-backed phases are routed
/// through a PfsDeviceTransferService instead, so concurrent checkpoints
/// from different applications slow each other down.

#include <cstdint>

#include "sim/pfs_device.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace xres {

/// Everything the platform model knows about one checkpoint transfer.
/// `nominal` is always set (the plan's closed-form duration); `bytes` and
/// `rate_cap` are set when the plan was built by a topology-aware model
/// (resilience/plan.hpp) so a queued device can serve actual data at the
/// application's injection bandwidth.
struct TransferRequest {
  Duration nominal{Duration::zero()};
  DataSize bytes{DataSize::zero()};
  Bandwidth rate_cap{Bandwidth::bytes_per_second(0.0)};

  [[nodiscard]] bool has_topology_info() const {
    return bytes > DataSize::zero() && rate_cap > Bandwidth::bytes_per_second(0.0);
  }
};

/// Routes transfers through a PfsDevice (sim/pfs_device.hpp). Requests
/// with topology info are served as-is; requests without it (flat-model
/// plans) are converted to bytes at the service's fallback rate and capped
/// at that rate, so a lone transfer takes exactly its nominal time.
class PfsDeviceTransferService {
 public:
  using TransferHandle = PfsDevice::TransferId;
  using CompletionCallback = EventCallback;

  /// \p device must outlive the service. \p fallback_rate is the byte
  /// conversion rate and rate cap for requests without topology info: the
  /// device's aggregate bandwidth under the fat-tree model, the per-
  /// application Eq.-3 rate B_N × N_S for the flat contended PFS.
  PfsDeviceTransferService(PfsDevice& device, Bandwidth fallback_rate);

  /// Start a transfer; \p on_complete fires when it completes (later than
  /// the nominal duration under load).
  TransferHandle begin(const TransferRequest& request, CompletionCallback on_complete);

  /// Abort an in-flight transfer (no-op if already complete).
  void cancel(TransferHandle handle) { device_.cancel(handle); }

 private:
  PfsDevice& device_;
  double fallback_bps_;
};

}  // namespace xres
