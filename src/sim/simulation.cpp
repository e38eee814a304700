#include "sim/simulation.hpp"

#include <atomic>
#include <utility>

#include "obs/perf.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

namespace {

/// Per-Simulation id tag. A process-wide counter guarantees distinct salts
/// for (the first 65535) concurrently live Simulations, making
/// pending()/cancel() with a foreign Simulation's id deterministically
/// false. The value never influences event ordering or any serialized
/// artifact, so the cross-thread construction order being nondeterministic
/// is harmless.
std::uint64_t next_salt() {
  static std::atomic<std::uint64_t> counter{0};
  // 1..65535, never 0: keeps a value-initialized EventId{0} unanswerable by
  // any Simulation regardless of how many a process creates.
  return (counter.fetch_add(1, std::memory_order_relaxed) % 0xFFFFULL) + 1;
}

}  // namespace

Simulation::Simulation() : salt_{next_salt()} {}

Simulation::~Simulation() {
  obs::perf_add_engine(stat_scheduled_, stat_dispatched_, stat_cancelled_);
  // Every executed event was either a queued callback or a calendar
  // client's dispatch.
  obs::perf_add_simulation(watchdog_polls_, events_processed_ - stat_dispatched_);
}

void Simulation::reject_delay(Duration delay) {
  XRES_CHECK(false, "negative scheduling delay: " + to_string(delay));
  __builtin_unreachable();
}

void Simulation::reject_seq_exhausted() {
  XRES_CHECK(false, "simulation insertion seqs exhausted (2^40 draws)");
  __builtin_unreachable();
}

EventId Simulation::schedule_at(TimePoint when, EventCallback callback) {
  XRES_CHECK(when >= now_, "cannot schedule an event in the past (t=" +
                               to_string(when) + " < now=" + to_string(now_) + ")");
  return enqueue(when, std::move(callback));
}

EventId Simulation::schedule_after(Duration delay, EventCallback callback) {
  XRES_CHECK(delay >= Duration::zero(), "negative scheduling delay: " + to_string(delay));
  return enqueue(now_ + delay, std::move(callback));
}

EventId Simulation::enqueue(TimePoint when, EventCallback callback) {
  XRES_CHECK(static_cast<bool>(callback), "event callback must be non-empty");
  const std::uint64_t seq = draw_seq();
  const CalendarSlot slot = calendar_.open(this);
  const auto index = static_cast<std::uint32_t>(slot);
  if (index >= queued_.size()) queued_.resize(index + 1);
  QueuedSlot& queued = queued_[index];
  const std::uint32_t generation = ++queued.generation;  // even (free) -> odd (pending)
  queued.callback = std::move(callback);
  calendar_.publish(slot, PhaseCalendar::make_entry(slot, when, seq));
  ++stat_scheduled_;
  return encode(index, generation);
}

const Simulation::QueuedSlot* Simulation::find_pending(EventId id) const {
  const auto raw = static_cast<std::uint64_t>(id);
  if ((raw >> (kIndexBits + kGenBits)) != salt_) return nullptr;
  const auto index = static_cast<std::size_t>(raw & kIndexMask);
  if (index >= queued_.size()) return nullptr;
  // Ids are only minted from odd (pending) generations, so the tag compare
  // alone answers liveness.
  const QueuedSlot& queued = queued_[index];
  const auto generation = static_cast<std::uint32_t>((raw >> kIndexBits) & kGenMask);
  return (queued.generation & kGenMask) == generation ? &queued : nullptr;
}

bool Simulation::pending(EventId id) const { return find_pending(id) != nullptr; }

bool Simulation::cancel(EventId id) {
  const QueuedSlot* found = find_pending(id);
  if (found == nullptr) return false;
  const auto index = static_cast<std::uint32_t>(found - queued_.data());
  QueuedSlot& queued = queued_[index];
  ++queued.generation;  // odd (pending) -> even: invalidates every handle
  queued.callback.reset();
  calendar_.close(CalendarSlot{index});
  ++stat_cancelled_;
  return true;
}

void Simulation::on_calendar(std::uint32_t index) {
  QueuedSlot& queued = queued_[index];
  ++queued.generation;  // odd (pending) -> even (fired)
  // Moved out first: the callback may schedule into this very slot.
  EventCallback callback = std::move(queued.callback);
  calendar_.close(CalendarSlot{index});
  ++stat_dispatched_;
  callback();
}

bool Simulation::step() {
  const EventKey& front = calendar_.top();
  if (front.hi == kNoEventKey.hi) return false;
  fire_slot(CalendarSlot{front.index()});
  return true;
}

void Simulation::run(std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_) {
    if (max_events != 0 && executed >= max_events) break;
    // Watchdog poll (util/deadline.hpp): cheap thread-local check; throws
    // TrialTimeoutError past the executor-armed per-trial deadline. Every
    // 4096 events keeps the clock_gettime cost out of the hot loop.
    if ((executed & 0xFFFU) == 0) {
      ++watchdog_polls_;
      deadline_poll();
    }
    if (!step()) break;
    ++executed;
  }
}

void Simulation::run_until(TimePoint until) {
  XRES_CHECK(until >= now_, "run_until target is in the past");
  stop_requested_ = false;
  while (!stop_requested_) {
    const EventKey& next = calendar_.top();
    if (next.hi == kNoEventKey.hi || next.time() > until) break;
    step();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace xres
