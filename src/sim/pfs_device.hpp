#pragma once

/// \file pfs_device.hpp
/// A queued parallel-file-system device for discrete-event simulations
/// (docs/PLATFORM.md).
///
/// The device admits at most `admission_slots` transfers at once (the
/// paper's N_S under the fat-tree model); the rest wait in an arrival-order
/// FIFO queue. In-service transfers fair-share the `aggregate` device
/// bandwidth, each additionally limited by its own `rate_cap` — the
/// injection bandwidth the interconnect grants the application
/// (fattree.hpp), so a small application cannot absorb more of the device
/// than its links can carry.
///
/// With unbounded admission and a common rate cap this is the classic
/// egalitarian processor-sharing queue: the flat model's contended PFS
/// (`WorkloadEngineConfig::pfs_gateways`) is such a device with aggregate
/// gateways × B_N × N_S and every transfer capped at its Eq.-3 rate
/// B_N × N_S.
///
/// Progress is exact (no time-stepping): whenever the active set changes,
/// remaining sizes advance at the old rates and the single pending
/// completion event moves to the new earliest finisher.
///
/// The device tracks measured vs. nominal service time so studies can
/// report how far queueing + link caps diverge from the closed-form Eq. 3
/// cost that `nominal` carries.

#include <cstdint>
#include <deque>
#include <map>

#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace xres {

class PfsDevice {
 public:
  using TransferId = std::uint64_t;
  using CompletionCallback = EventCallback;

  PfsDevice(Simulation& sim, std::uint32_t admission_slots, Bandwidth aggregate);

  PfsDevice(const PfsDevice&) = delete;
  PfsDevice& operator=(const PfsDevice&) = delete;
  ~PfsDevice();

  /// Submit \p size for service. \p rate_cap bounds this transfer's rate
  /// (the application's injection bandwidth); \p nominal is the
  /// closed-form cost the caller would have charged without the device
  /// (for divergence accounting). \p on_complete fires at completion.
  TransferId begin_transfer(DataSize size, Bandwidth rate_cap, Duration nominal,
                            CompletionCallback on_complete);

  /// Abort a transfer (queued or in service). Returns false when it
  /// already completed or was already cancelled.
  bool cancel(TransferId id);

  [[nodiscard]] std::size_t in_service() const { return active_.size(); }
  [[nodiscard]] std::size_t queued() const { return waiting_.size(); }
  [[nodiscard]] std::uint64_t completed_transfers() const { return completed_; }

  /// Summed wall time (submit → completion) of completed transfers.
  [[nodiscard]] double measured_seconds() const { return measured_seconds_; }
  /// Summed closed-form nominal time of completed transfers.
  [[nodiscard]] double nominal_seconds() const { return nominal_seconds_; }

 private:
  struct Transfer {
    double remaining_bytes{0.0};
    double rate_cap_bps{0.0};
    double submit_s{0.0};
    double nominal_s{0.0};
    CompletionCallback on_complete;
  };

  /// Rate currently granted to one in-service transfer.
  [[nodiscard]] double rate_of(const Transfer& t) const;

  void advance_to_now();
  void reschedule();
  void on_completion_event();
  void admit_from_queue();

  Simulation& sim_;
  std::uint32_t admission_slots_;
  double aggregate_bps_;
  std::map<TransferId, Transfer> active_;
  std::deque<TransferId> waiting_;       ///< FIFO admission order
  std::map<TransferId, Transfer> queued_;
  TransferId next_id_{1};
  double last_update_s_{0.0};
  EventId pending_{};
  bool has_pending_{false};
  std::uint64_t completed_{0};
  double measured_seconds_{0.0};
  double nominal_seconds_{0.0};
};

}  // namespace xres
