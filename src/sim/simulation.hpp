#pragma once

/// \file simulation.hpp
/// The discrete-event simulation engine: a clock, an event queue and a
/// phase calendar.
///
/// A Simulation owns simulated time. Model components schedule callbacks at
/// absolute or relative times; the engine executes them in deterministic
/// order (time, then insertion order) and advances the clock monotonically.
/// Scheduling into the past is a programming error and throws.
///
/// Two containers feed that one order:
///  * the event queue (sim/event_queue.hpp) holds arbitrary callbacks —
///    arrivals, deadlines, failures, PFS device completions;
///  * the phase calendar (sim/phase_calendar.hpp) holds per-client timer
///    slots — each application runtime's next phase boundary and its
///    wall-time cap — with no closure per publish.
/// Both draw their seqs from the queue's single insertion counter, so a
/// calendar publish and a schedule() issued in some order fire in that
/// order on a time tie, exactly as if both had been queued. step() pops
/// whichever container's front comes first; every dispatch, from either,
/// counts as one executed event. The queue renumbers the seqs of both
/// before the 32-bit counter wraps (EventQueue::renumber_seqs).

#include <cstdint>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/phase_calendar.hpp"
#include "util/units.hpp"

namespace xres {

class Simulation {
 public:
  Simulation() = default;
  /// Flushes the watchdog-poll and calendar-dispatch tallies into the
  /// process-global perf counters.
  ~Simulation();

  // The engine hands out raw pointers/references to itself; moving it would
  // invalidate model components' back-references.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule \p callback at absolute time \p when (>= now()).
  EventId schedule_at(TimePoint when, EventCallback callback);

  /// Schedule \p callback \p delay from now (delay >= 0).
  EventId schedule_after(Duration delay, EventCallback callback);

  /// Cancel a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// True if \p id is still pending.
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  // ---- phase calendar ----

  /// Open a calendar slot that fires \p client with \p tag. \p client must
  /// outlive the slot; close it before the client goes away.
  CalendarSlot open_slot(CalendarClient& client, std::uint32_t tag) {
    return calendar_.open(&client, tag);
  }
  void close_slot(CalendarSlot slot) { calendar_.close(slot); }

  /// Publish \p slot \p delay from now (delay >= 0). Draws one insertion
  /// seq, exactly as schedule_after() would. The slot must not be
  /// published already.
  void publish_after(CalendarSlot slot, Duration delay) {
    calendar_.publish(slot, draw_entry(slot, delay));
  }

  /// Unpublish \p slot (draws no seq, like cancel()). Returns false when it
  /// was not published.
  bool retract(CalendarSlot slot) { return calendar_.retract(slot); }

  [[nodiscard]] bool published(CalendarSlot slot) const {
    return calendar_.published(slot);
  }

  /// \p slot's calendar entry (PhaseCalendar::Entry). With fire_slot()
  /// and count_watchdog_poll(), this lets a loop that owns every pending
  /// entry — the direct trial engine, whose queue stays empty — find the
  /// front among a few known slots itself (PhaseCalendar::earlier). The
  /// reference is to live storage: a seq renumbering rewrites it.
  [[nodiscard]] const PhaseCalendar::Entry& slot_entry(CalendarSlot slot) const {
    return calendar_.entry(slot);
  }

  /// Fire the published \p slot: advance the clock to its time, credit one
  /// executed event and call its client — exactly what step() does when
  /// \p slot is the front.
  void fire_slot(CalendarSlot slot) {
    const PhaseCalendar::Fired fired = take_slot(slot);
    fired.client->on_calendar(fired.tag);
  }

  /// fire_slot() for a caller that knows \p slot's client (a final class):
  /// the firing is delivered through a direct, inlinable call.
  template <typename Client>
  void fire_slot(CalendarSlot slot, Client& client) {
    client.on_calendar(take_slot(slot).tag);
  }

  /// Credit one watchdog poll (run() polls every 4096 events; a caller
  /// with its own loop calls deadline_poll() itself at the same cadence).
  void count_watchdog_poll() { ++watchdog_polls_; }

  // ---- chained dispatch ----
  //
  // A loop that knows one slot's next entry comes before everything else
  // pending (ResilientAppRuntime::run_chain) may hold that entry itself
  // instead of publishing it: draw_entry() draws the seq publish_after()
  // would, fire_held() does what fire_slot() does minus the calendar, and
  // publish_entry() writes the entry back once the chain stops. The
  // seq draw points, the clock and the event credits stay exactly those
  // of publishing every entry.

  /// The entry publish_after(\p slot, \p delay) would store, for the
  /// caller to hold: draws one seq. A draw may first renumber every pending
  /// seq (in place, so slot_entry() references stay current), so a holder
  /// must not keep a held entry or copies of pending ones across it.
  [[nodiscard]] PhaseCalendar::Entry draw_entry(CalendarSlot slot, Duration delay) {
    if (!(delay >= Duration::zero())) [[unlikely]] reject_delay(delay);
    return PhaseCalendar::make_entry(slot, now_ + delay, queue_.draw_seq());
  }

  /// Publish \p entry, drawn by draw_entry() for \p slot and never
  /// published since.
  void publish_entry(CalendarSlot slot, const PhaseCalendar::Entry& entry) {
    calendar_.publish(slot, entry);
  }

  /// Fire a held entry at \p when: advance the clock and credit one
  /// executed event, as fire_slot() does; the caller runs the handler.
  void fire_held(TimePoint when) {
    now_ = when;
    ++events_processed_;
  }

  // ---- execution ----

  /// Execute the next event, advancing the clock to its time.
  /// Returns false when no events remain (clock unchanged).
  bool step();

  /// Run until both containers drain or request_stop() is called.
  /// \p max_events guards against runaway models (0 = unlimited).
  void run(std::uint64_t max_events = 0);

  /// Execute all events with time <= \p until, then advance the clock to
  /// \p until (even if no event fired exactly there).
  void run_until(TimePoint until);

  /// Ask run()/run_until() to return after the current event completes.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of pending events: queued plus published calendar slots.
  [[nodiscard]] std::size_t pending_events() const {
    return queue_.size() + calendar_.size();
  }

  /// Total events executed since construction, from either container.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  /// Test-only access to the shared insertion counter.
  friend class SeqCounterTestPeer;

  /// Throws the negative-delay CheckError (kept out of the inline path).
  [[noreturn]] static void reject_delay(Duration delay);

  /// fire_slot()'s bookkeeping: clock, event credit, unpublish.
  PhaseCalendar::Fired take_slot(CalendarSlot slot) {
    fire_held(calendar_.entry(slot).time);
    return calendar_.fire(slot);
  }

  // Declared before queue_: the queue holds a pointer to it.
  PhaseCalendar calendar_;
  EventQueue queue_{&calendar_};
  TimePoint now_{TimePoint::origin()};
  std::uint64_t events_processed_{0};
  std::uint64_t watchdog_polls_{0};  ///< flushed by the destructor
  bool stop_requested_{false};
};

}  // namespace xres
