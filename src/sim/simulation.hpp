#pragma once

/// \file simulation.hpp
/// The discrete-event simulation engine: a clock over one pending-event
/// set, the phase calendar.
///
/// A Simulation owns simulated time. Model components schedule callbacks at
/// absolute or relative times; the engine executes them in deterministic
/// order (time, then insertion order) and advances the clock monotonically.
/// Scheduling into the past is a programming error and throws.
///
/// Every pending event is a slot of the phase calendar
/// (sim/phase_calendar.hpp):
///  * per-client timer slots — each application runtime's next phase
///    boundary and its wall-time cap — published with no closure;
///  * queued callbacks — arrivals, deadlines, failures, PFS device
///    completions — each in a slot the Simulation opens for itself, with
///    the callback waiting in a slab indexed by slot.
/// Every publish and every schedule() draws one seq from the single
/// insertion counter, so they fire in issue order on a time tie. step()
/// fires the calendar's front; every dispatch counts as one executed event.
/// A seq is 40 bits and never reused; the draw after 2^40 throws.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/phase_calendar.hpp"
#include "util/units.hpp"

namespace xres {

/// Handle identifying a scheduled callback; unique within one Simulation's
/// lifetime. Never zero for a real event, so a value-initialized EventId is
/// a safe "no event" sentinel that cancel()/pending() reject.
enum class EventId : std::uint64_t {};

}  // namespace xres

template <>
struct std::hash<xres::EventId> {
  std::size_t operator()(xres::EventId id) const noexcept {
    return std::hash<std::uint64_t>{}(static_cast<std::uint64_t>(id));
  }
};

namespace xres {

/// Action executed when an event fires.
using EventCallback = SmallCallback;

class Simulation : private CalendarClient {
 public:
  Simulation();
  /// Flushes the lifetime tallies (schedules, queued dispatches, cancels,
  /// watchdog polls, calendar dispatches) into the process-global perf
  /// counters.
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

  /// Cancel a pending callback: retract and close its slot. Returns true if
  /// it was still pending (false if it already fired, was already
  /// cancelled, or belongs to a different Simulation). O(1).
  bool cancel(EventId id);

  /// True if \p id is still pending. Ids from other Simulations, fired
  /// callbacks and cancelled ones all report false. O(1).
  [[nodiscard]] bool pending(EventId id) const;

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
  /// entry — the direct trial engine, which queues no callback — find the
  /// front among a few known slots itself (PhaseCalendar::earlier).
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
  /// caller to hold: draws one seq.
  [[nodiscard]] PhaseCalendar::Entry draw_entry(CalendarSlot slot, Duration delay) {
    if (!(delay >= Duration::zero())) [[unlikely]] reject_delay(delay);
    return PhaseCalendar::make_entry(slot, now_ + delay, draw_seq());
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

  /// Run until the calendar drains or request_stop() is called.
  /// \p max_events guards against runaway models (0 = unlimited).
  void run(std::uint64_t max_events = 0);

  /// Execute all events with time <= \p until, then advance the clock to
  /// \p until (even if no event fired exactly there).
  void run_until(TimePoint until);

  /// Ask run()/run_until() to return after the current event completes.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of pending events: published calendar slots, queued callbacks
  /// included.
  [[nodiscard]] std::size_t pending_events() const { return calendar_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  /// Test-only access to the insertion counter.
  friend class SeqCounterTestPeer;

  // EventId bit layout: [63:48] Simulation salt, [47:24] slot generation,
  // [23:0] slot index (the calendar caps slots below 2^24). A slot's
  // generation is odd while a queued callback is pending in it and even
  // otherwise — ids are only ever minted from odd generations, so a single
  // masked compare answers "pending?". The 24-bit generation wraps after
  // 2^23 reuses of one slot, after which a stale id could in principle
  // alias — far beyond any realistic cancel pattern between two uses of the
  // same handle.
  static constexpr std::uint64_t kIndexBits = PhaseCalendar::kSlotBits;
  static constexpr std::uint64_t kGenBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ULL << kIndexBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ULL << kGenBits) - 1;

  /// The slab cell of a queued callback, padded to a cache line so
  /// neighbouring callbacks never share one. `generation` persists while
  /// the slot serves other clients, so stale ids stay dead.
  struct alignas(64) QueuedSlot {
    EventCallback callback;
    std::uint32_t generation{0};
  };

  /// Dispatch of a queued callback: its slot's tag is the slot index.
  void on_calendar(std::uint32_t index) override;

  /// Draw the next insertion seq.
  std::uint64_t draw_seq() {
    if (next_seq_ == PhaseCalendar::kSeqLimit) [[unlikely]] reject_seq_exhausted();
    return next_seq_++;
  }

  /// schedule_at()/schedule_after() once \p when is checked.
  EventId enqueue(TimePoint when, EventCallback callback);

  [[nodiscard]] EventId encode(std::uint32_t index, std::uint32_t generation) const {
    return EventId{(salt_ << (kIndexBits + kGenBits)) |
                   ((static_cast<std::uint64_t>(generation) & kGenMask) << kIndexBits) |
                   index};
  }

  /// The slab cell \p id names while its callback is pending, else null
  /// (fired, cancelled, stale, foreign or never minted).
  [[nodiscard]] const QueuedSlot* find_pending(EventId id) const;

  /// Throw the negative-delay / seq-exhausted CheckErrors (kept out of the
  /// inline paths).
  [[noreturn]] static void reject_delay(Duration delay);
  [[noreturn]] static void reject_seq_exhausted();

  /// fire_slot()'s bookkeeping: clock, event credit, unpublish.
  PhaseCalendar::Fired take_slot(CalendarSlot slot) {
    fire_held(calendar_.entry(slot).time);
    return calendar_.fire(slot);
  }

  PhaseCalendar calendar_;
  /// Queued callbacks, indexed by calendar slot.
  std::vector<QueuedSlot> queued_;
  std::uint64_t salt_;  ///< per-Simulation id tag; see find_pending()
  std::uint64_t next_seq_{0};
  TimePoint now_{TimePoint::origin()};
  std::uint64_t events_processed_{0};
  bool stop_requested_{false};

  // Lifetime telemetry, flushed once by the destructor.
  std::uint64_t watchdog_polls_{0};
  std::uint64_t stat_scheduled_{0};
  std::uint64_t stat_dispatched_{0};  ///< queued callbacks run
  std::uint64_t stat_cancelled_{0};
};

}  // namespace xres
