// Unit tests for the simulation engine: queued callbacks and calendar slots.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "seq_counter_peer.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"

namespace xres {
namespace {

TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

TEST(QueuedEvents, PopsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(at(3.0), [&] { order.push_back(3); });
  sim.schedule_at(at(1.0), [&] { order.push_back(1); });
  sim.schedule_at(at(2.0), [&] { order.push_back(2); });
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(QueuedEvents, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(at(5.0), [&] { order.push_back(1); });
  sim.schedule_at(at(5.0), [&] { order.push_back(2); });
  sim.schedule_at(at(5.0), [&] { order.push_back(3); });
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(QueuedEvents, CancelPreventsDelivery) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(at(1.0), [&] { order.push_back(1); });
  const EventId doomed = sim.schedule_at(at(2.0), [&] { order.push_back(2); });
  sim.schedule_at(at(3.0), [&] { order.push_back(3); });
  EXPECT_TRUE(sim.pending(doomed));
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.pending(doomed));
  EXPECT_FALSE(sim.cancel(doomed));  // second cancel is a no-op
  while (sim.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(QueuedEvents, SizeTracksLiveEvents) {
  Simulation sim;
  const EventId a = sim.schedule_at(at(1.0), [] {});
  sim.schedule_at(at(2.0), [] {});
  EXPECT_EQ(sim.pending_events(), 2U);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1U);
  // The cancelled event leaves nothing behind: the next step fires t = 2.
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), at(2.0));
  EXPECT_EQ(sim.pending_events(), 0U);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.now(), at(2.0));
}

TEST(QueuedEvents, RejectsEmptyCallback) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(at(1.0), EventCallback{}), CheckError);
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(QueuedEvents, CancelAfterFireReturnsFalse) {
  // Regression: the runtime holds on to completion-event ids across
  // failures; cancelling one whose event already fired must be a safe
  // no-op, not a hit on whatever reused the slot.
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(at(1.0), [&] { fired = true; });
  ASSERT_TRUE(sim.step());
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));
  // The slot is recycled by the next schedule; the stale id must still be
  // rejected rather than cancelling the new occupant.
  const EventId fresh = sim.schedule_at(at(2.0), [] {});
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_TRUE(sim.pending(fresh));
  EXPECT_EQ(sim.pending_events(), 1U);
}

TEST(QueuedEvents, ForeignQueueIdIsRejected) {
  // Regression: pending()/cancel() with another Simulation's id (or a
  // value-initialized one) must be safe and answer false, whatever state
  // either Simulation is in.
  Simulation a;
  Simulation b;
  const EventId in_a = a.schedule_at(at(1.0), [] {});
  b.schedule_at(at(1.0), [] {});
  EXPECT_FALSE(b.pending(in_a));
  EXPECT_FALSE(b.cancel(in_a));
  EXPECT_FALSE(a.pending(EventId{}));
  EXPECT_FALSE(a.cancel(EventId{}));
  EXPECT_TRUE(a.pending(in_a));  // still live in its own Simulation
  EXPECT_EQ(b.pending_events(), 1U);
}

TEST(QueuedEvents, StaleIdStaysDeadAcrossSlotReuse) {
  // Cancel an event, then keep recycling its slot: every older handle for
  // the slot must remain dead while the current one works.
  Simulation sim;
  const EventId first = sim.schedule_at(at(1.0), [] {});
  ASSERT_TRUE(sim.cancel(first));
  std::vector<EventId> stale{first};
  for (int round = 0; round < 16; ++round) {
    int fired = -1;
    const EventId current = sim.schedule_at(at(1.0 + round), [&fired, round] { fired = round; });
    for (const EventId old : stale) {
      EXPECT_FALSE(sim.pending(old));
      EXPECT_FALSE(sim.cancel(old));
    }
    EXPECT_TRUE(sim.pending(current));
    if (round % 2 == 0) {
      ASSERT_TRUE(sim.cancel(current));
    } else {
      ASSERT_TRUE(sim.step());
      EXPECT_EQ(fired, round);
      EXPECT_FALSE(sim.pending(current));
    }
    stale.push_back(current);
  }
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  std::vector<double> times;
  sim.schedule_after(Duration::seconds(10.0), [&] { times.push_back(sim.now().to_seconds()); });
  sim.schedule_at(at(5.0), [&] { times.push_back(sim.now().to_seconds()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 10.0);
  EXPECT_EQ(sim.events_processed(), 2U);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(at(5.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(at(1.0), [] {}), CheckError);
  EXPECT_THROW(sim.schedule_after(Duration::seconds(-1.0), [] {}), CheckError);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(1.0), [&] {
    ++fired;
    sim.schedule_after(Duration::seconds(1.0), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.0);
}

TEST(Simulation, RunUntilAdvancesClockPastLastEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(3.0), [&] { ++fired; });
  sim.schedule_at(at(8.0), [&] { ++fired; });
  sim.run_until(at(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(at(1.0), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(at(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, MaxEventsGuard) {
  Simulation sim;
  int fired = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++fired;
    sim.schedule_after(Duration::seconds(1.0), tick);
  };
  sim.schedule_after(Duration::seconds(1.0), tick);
  sim.run(/*max_events=*/25);
  EXPECT_EQ(fired, 25);
}

TEST(Simulation, CancelScheduledEvent) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.schedule_at(at(4.0), [&] { ++fired; });
  sim.schedule_at(at(1.0), [&] { sim.cancel(id); });
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 1.0);
}

TEST(Simulation, DeterministicTieOrderWithCancellation) {
  // A cancelled event between two live ones at the same time must not
  // disturb the deterministic order.
  Simulation sim;
  std::string log;
  sim.schedule_at(at(1.0), [&] { log += 'a'; });
  const EventId b = sim.schedule_at(at(1.0), [&] { log += 'b'; });
  sim.schedule_at(at(1.0), [&] { log += 'c'; });
  sim.cancel(b);
  sim.run();
  EXPECT_EQ(log, "ac");
}

/// Calendar client that logs "<name>" for each firing of tag i.
class RecordingClient final : public CalendarClient {
 public:
  RecordingClient(std::vector<std::string>& log, std::vector<std::string> names)
      : log_{log}, names_{std::move(names)} {}
  void on_calendar(std::uint32_t tag) override { log_.push_back(names_.at(tag)); }

 private:
  std::vector<std::string>& log_;
  std::vector<std::string> names_;
};

TEST(PhaseCalendar, SlotsInterleaveWithQueuedEventsByInsertionOrder) {
  Simulation sim;
  std::vector<std::string> log;
  RecordingClient client{log, {"s0", "s1"}};
  const CalendarSlot s0 = sim.open_slot(client, 0);
  const CalendarSlot s1 = sim.open_slot(client, 1);
  sim.schedule_after(Duration::seconds(5), [&] { log.push_back("q0"); });
  sim.publish_after(s0, Duration::seconds(5));
  sim.schedule_after(Duration::seconds(5), [&] { log.push_back("q1"); });
  sim.publish_after(s1, Duration::seconds(2));
  EXPECT_TRUE(sim.published(s0));
  EXPECT_EQ(sim.pending_events(), 4U);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"s1", "q0", "s0", "q1"}));
  EXPECT_EQ(sim.events_processed(), 4U);
  EXPECT_EQ(sim.now(), TimePoint::at(Duration::seconds(5)));
  EXPECT_FALSE(sim.published(s0));
  sim.close_slot(s0);
  sim.close_slot(s1);
}

TEST(PhaseCalendar, RetractAndRepublish) {
  Simulation sim;
  std::vector<std::string> log;
  RecordingClient client{log, {"a", "b"}};
  const CalendarSlot a = sim.open_slot(client, 0);
  const CalendarSlot b = sim.open_slot(client, 1);
  sim.publish_after(a, Duration::seconds(1));
  sim.publish_after(b, Duration::seconds(3));
  EXPECT_TRUE(sim.retract(a));
  EXPECT_FALSE(sim.retract(a));
  EXPECT_THROW(sim.publish_after(b, Duration::seconds(1)), CheckError);
  sim.publish_after(a, Duration::seconds(4));
  EXPECT_THROW(sim.publish_after(a, Duration::seconds(-1)), CheckError);
  sim.run_until(TimePoint::at(Duration::seconds(3)));
  EXPECT_EQ(log, (std::vector<std::string>{"b"}));
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));
  // A closed slot's index is reused; the reopened slot starts unpublished.
  sim.close_slot(a);
  const CalendarSlot c = sim.open_slot(client, 0);
  EXPECT_FALSE(sim.published(c));
  sim.close_slot(b);
  sim.close_slot(c);
}

TEST(PhaseCalendar, OrderStaysExactAcrossTheSeqWrap) {
  // Seqs are 40 bits, so the counter runs past 2^32 (where a 32-bit seq
  // would wrap) with every pending entry untouched.
  Simulation sim;
  std::vector<std::string> log;
  RecordingClient client{log, {"s0", "s1", "s2", "s3"}};
  std::vector<CalendarSlot> slots;
  for (std::uint32_t tag = 0; tag < 4; ++tag) slots.push_back(sim.open_slot(client, tag));
  const auto queued = [&](const char* name) { return [&log, name] { log.push_back(name); }; };
  const Duration t10 = Duration::seconds(10);
  const Duration t5 = Duration::seconds(5);
  const std::uint64_t wrap = std::uint64_t{1} << 32;

  // The last three seqs below 2^32: a queued event, a calendar slot and a
  // queued event that is then cancelled, all at t = 10.
  SeqCounterTestPeer::preset(sim, wrap - 3);
  sim.schedule_after(t10, queued("q0"));
  sim.publish_after(slots[0], t10);
  const EventId dead = sim.schedule_after(t10, queued("dead"));
  ASSERT_TRUE(sim.cancel(dead));
  // The next draw takes seq 2^32. s3 is retracted again (republished
  // below).
  sim.publish_after(slots[3], t5);
  EXPECT_TRUE(sim.retract(slots[3]));

  // Seqs past 2^32 must still order after the ones below it on the t = 10
  // tie, for calendar slots and queued events alike.
  sim.publish_after(slots[1], t10);
  EXPECT_EQ(SeqCounterTestPeer::next_seq(sim), wrap + 2);
  sim.schedule_after(t10, queued("q1"));
  sim.publish_after(slots[2], t5);
  sim.schedule_after(t5, queued("q2"));
  sim.publish_after(slots[3], t10);

  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"s2", "q2", "q0", "s0", "s1", "q1", "s3"}));
  for (const CalendarSlot slot : slots) sim.close_slot(slot);
}

TEST(Simulation, SeqDrawPastTwoToTheFortyThrows) {
  // The 2^40th draw is the last one; the next throws instead of reusing a
  // seq, whether a queued event or a calendar publish asks for it.
  Simulation sim;
  std::vector<std::string> log;
  RecordingClient client{log, {"s0"}};
  const CalendarSlot slot = sim.open_slot(client, 0);
  SeqCounterTestPeer::preset(sim, (std::uint64_t{1} << 40) - 1);
  sim.schedule_after(Duration::seconds(1), [&log] { log.push_back("last"); });
  EXPECT_THROW(sim.schedule_after(Duration::seconds(1), [] {}), CheckError);
  EXPECT_THROW(sim.publish_after(slot, Duration::seconds(1)), CheckError);
  EXPECT_FALSE(sim.published(slot));
  // The refused draws left nothing pending.
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"last"}));
  sim.close_slot(slot);
}

}  // namespace
}  // namespace xres
