#include "sim/simulation.hpp"

#include "obs/perf.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

Simulation::~Simulation() {
  // Every executed event was either a heap pop or a calendar dispatch.
  obs::perf_add_simulation(watchdog_polls_, events_processed_ - queue_.popped());
}

EventId Simulation::schedule_at(TimePoint when, EventCallback callback) {
  XRES_CHECK(when >= now_, "cannot schedule an event in the past (t=" +
                               to_string(when) + " < now=" + to_string(now_) + ")");
  return queue_.schedule(when, std::move(callback));
}

void Simulation::reject_delay(Duration delay) {
  XRES_CHECK(false, "negative scheduling delay: " + to_string(delay));
  __builtin_unreachable();
}

EventId Simulation::schedule_after(Duration delay, EventCallback callback) {
  XRES_CHECK(delay >= Duration::zero(), "negative scheduling delay: " + to_string(delay));
  return queue_.schedule(now_ + delay, std::move(callback));
}

bool Simulation::step() {
  const EventKey front = calendar_.top();
  if (earlier(front, queue_.top_key())) {
    fire_slot(CalendarSlot{front.index()});
    return true;
  }
  auto fired = queue_.pop();
  if (!fired.has_value()) return false;
  XRES_CHECK(fired->time >= now_, "event queue produced a past event");
  now_ = fired->time;
  ++events_processed_;
  fired->callback();
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
    const EventKey calendar_front = calendar_.top();
    const EventKey queue_front = queue_.top_key();
    const EventKey& next = earlier(calendar_front, queue_front) ? calendar_front : queue_front;
    if (next.hi == kNoEventKey.hi || next.time() > until) break;
    step();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace xres
