#include "sim/pfs_device.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace xres {

namespace {
// Sub-byte residues from floating-point progress accounting count as done.
constexpr double kRemainingEpsilonBytes = 1e-6;
}  // namespace

PfsDevice::PfsDevice(Simulation& sim, std::uint32_t admission_slots, Bandwidth aggregate)
    : sim_{sim},
      admission_slots_{admission_slots},
      aggregate_bps_{aggregate.to_bytes_per_second()},
      last_update_s_{sim.now().to_seconds()} {
  XRES_CHECK(admission_slots_ > 0, "PFS device needs at least one admission slot");
  XRES_CHECK(aggregate_bps_ > 0.0, "PFS aggregate bandwidth must be positive");
}

PfsDevice::~PfsDevice() {
  if (has_pending_) sim_.cancel(pending_);
}

double PfsDevice::rate_of(const Transfer& t) const {
  const double share = aggregate_bps_ / static_cast<double>(active_.size());
  return std::min(t.rate_cap_bps, share);
}

void PfsDevice::advance_to_now() {
  const double now_s = sim_.now().to_seconds();
  const double elapsed = now_s - last_update_s_;
  last_update_s_ = now_s;
  if (elapsed <= 0.0 || active_.empty()) return;
  for (auto& [id, transfer] : active_) {
    transfer.remaining_bytes =
        std::max(0.0, transfer.remaining_bytes - rate_of(transfer) * elapsed);
  }
}

void PfsDevice::reschedule() {
  if (has_pending_) {
    sim_.cancel(pending_);
    has_pending_ = false;
  }
  if (active_.empty()) return;
  double min_eta = std::numeric_limits<double>::infinity();
  for (const auto& [id, transfer] : active_) {
    const double eta = std::max(0.0, transfer.remaining_bytes) / rate_of(transfer);
    min_eta = std::min(min_eta, eta);
  }
  pending_ = sim_.schedule_after(Duration::seconds(min_eta), [this] {
    has_pending_ = false;
    on_completion_event();
  });
  has_pending_ = true;
}

void PfsDevice::admit_from_queue() {
  while (active_.size() < admission_slots_ && !waiting_.empty()) {
    const TransferId id = waiting_.front();
    waiting_.pop_front();
    auto it = queued_.find(id);
    if (it == queued_.end()) continue;  // cancelled while waiting
    active_.emplace(id, std::move(it->second));
    queued_.erase(it);
  }
}

void PfsDevice::on_completion_event() {
  advance_to_now();
  // Complete exactly one finished transfer per event; simultaneous
  // finishers re-fire at zero delay. "Finished" tolerates floating-point
  // residue: at large absolute clock values an ETA below the clock's
  // representable resolution cannot advance time (the event would re-fire
  // at the same timestamp forever), so anything within a few ulps of
  // completion at its current rate is done.
  const double clock_resolution =
      std::max(1e-9, sim_.now().to_seconds() * 8.0 * std::numeric_limits<double>::epsilon());
  auto best = active_.end();
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (best == active_.end() ||
        it->second.remaining_bytes < best->second.remaining_bytes) {
      best = it;
    }
  }
  if (best != active_.end()) {
    const double done_threshold =
        std::max(kRemainingEpsilonBytes, rate_of(best->second) * clock_resolution);
    if (best->second.remaining_bytes <= done_threshold) {
      CompletionCallback callback = std::move(best->second.on_complete);
      measured_seconds_ += sim_.now().to_seconds() - best->second.submit_s;
      nominal_seconds_ += best->second.nominal_s;
      active_.erase(best);
      ++completed_;
      admit_from_queue();
      reschedule();
      callback();
      return;
    }
  }
  // Numeric corner: nothing quite finished; try again at the new ETA.
  reschedule();
}

PfsDevice::TransferId PfsDevice::begin_transfer(DataSize size, Bandwidth rate_cap,
                                                Duration nominal,
                                                CompletionCallback on_complete) {
  XRES_CHECK(static_cast<bool>(on_complete), "completion callback must be non-empty");
  XRES_CHECK(size >= DataSize::zero(), "transfer size must be non-negative");
  XRES_CHECK(rate_cap > Bandwidth::bytes_per_second(0.0),
             "transfer rate cap must be positive");
  advance_to_now();
  const TransferId id = next_id_++;
  Transfer t;
  t.remaining_bytes = size.to_bytes();
  t.rate_cap_bps = rate_cap.to_bytes_per_second();
  t.submit_s = sim_.now().to_seconds();
  t.nominal_s = nominal.to_seconds();
  t.on_complete = std::move(on_complete);
  if (active_.size() < admission_slots_) {
    active_.emplace(id, std::move(t));
  } else {
    queued_.emplace(id, std::move(t));
    waiting_.push_back(id);
  }
  reschedule();
  return id;
}

bool PfsDevice::cancel(TransferId id) {
  if (auto it = queued_.find(id); it != queued_.end()) {
    // Leave the stale id in waiting_; admit_from_queue skips it.
    queued_.erase(it);
    return true;
  }
  auto it = active_.find(id);
  if (it == active_.end()) return false;
  advance_to_now();
  active_.erase(it);
  admit_from_queue();
  reschedule();
  return true;
}

}  // namespace xres
