// Differential oracle test for the simulation's pending-event set.
//
// Drives ~1M randomized schedule/cancel/step/pending operations against a
// real Simulation and, in lockstep, a deliberately naive reference model (a
// std::map ordered by the contractual (time, insertion-seq) key). Every
// observable — firing order, fired callbacks and clock times, cancel and
// pending return values, pending count — must match the model exactly.
// The op mix leans on the cases that broke heaps before: same-timestamp
// bursts (ties must break by insertion order), cancel-after-fire, stale
// handles, and cancel storms that retract most of what was scheduled.
//
// This test also runs under TSAN (tools/tier1.sh) to shake out undefined
// behavior in the slab/tag machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace xres {
namespace {

TimePoint at(double s) { return TimePoint::at(Duration::seconds(s)); }

/// The contractual pop order: time, then insertion sequence.
using RefKey = std::pair<double, std::uint64_t>;

struct Oracle {
  std::map<RefKey, std::uint64_t> live;                 // key -> token
  std::unordered_map<std::uint64_t, RefKey> token_key;  // live tokens only
};

struct TrackedId {
  EventId id{};
  std::uint64_t token{0};
};

void run_ops(std::uint64_t seed, std::uint64_t ops) {
  Pcg32 rng{seed};
  Simulation sim;
  Oracle oracle;
  std::vector<TrackedId> handles;  // includes fired/cancelled (stale) ids
  std::vector<std::uint64_t> fired_tokens;
  std::uint64_t next_token = 1;
  std::uint64_t next_seq = 0;
  std::unordered_map<std::uint64_t, EventId> token_id;  // live tokens only

  const auto schedule_one = [&] {
    // Quantized times with decent probability of collision: same-timestamp
    // bursts must fire in insertion order. Times never precede the clock.
    const double now = sim.now().to_seconds();
    double t;
    if (rng.bernoulli(0.5)) {
      t = std::ceil(now) + static_cast<double>(rng.uniform_int(0, 40));  // heavy ties
    } else {
      t = now + rng.next_double() * 1000.0;
    }
    const std::uint64_t token = next_token++;
    const EventId id =
        sim.schedule_at(at(t), [&fired_tokens, token] { fired_tokens.push_back(token); });
    const RefKey key{t, next_seq++};
    oracle.live.emplace(key, token);
    oracle.token_key.emplace(token, key);
    handles.push_back(TrackedId{id, token});
    token_id.emplace(token, id);
  };

  const auto pop_one = [&] {
    const std::size_t before = fired_tokens.size();
    const bool fired = sim.step();
    if (oracle.live.empty()) {
      ASSERT_FALSE(fired);
      return;
    }
    ASSERT_TRUE(fired);
    const auto front = oracle.live.begin();
    EXPECT_EQ(sim.now(), at(front->first.first));
    const std::uint64_t expect_token = front->second;
    ASSERT_EQ(fired_tokens.size(), before + 1);
    EXPECT_EQ(fired_tokens.back(), expect_token);
    // The handle we recorded at schedule time must be the one that fired,
    // and it must be dead from here on.
    EXPECT_FALSE(sim.pending(token_id.at(expect_token)));
    token_id.erase(expect_token);
    oracle.token_key.erase(expect_token);
    oracle.live.erase(front);
  };

  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint32_t pick = rng.next_below(100);
    if (pick < 40) {
      schedule_one();
    } else if (pick < 55 && !handles.empty()) {
      // Cancel a random handle — possibly already fired or cancelled.
      const auto& h = handles[rng.next_below(static_cast<std::uint32_t>(handles.size()))];
      const bool ref_live = oracle.token_key.contains(h.token);
      EXPECT_EQ(sim.cancel(h.id), ref_live);
      if (ref_live) {
        oracle.live.erase(oracle.token_key.at(h.token));
        oracle.token_key.erase(h.token);
        token_id.erase(h.token);
      }
      EXPECT_FALSE(sim.pending(h.id));
      EXPECT_FALSE(sim.cancel(h.id));  // second cancel always refused
    } else if (pick < 90) {
      pop_one();
    } else if (!handles.empty()) {
      const auto& h = handles[rng.next_below(static_cast<std::uint32_t>(handles.size()))];
      EXPECT_EQ(sim.pending(h.id), oracle.token_key.contains(h.token));
    }

    EXPECT_EQ(sim.pending_events(), oracle.live.size());
    // Bound live-set growth (and with it, handle staleness) so the run
    // exercises deep queues without ballooning.
    if (oracle.live.size() > 20000) {
      while (oracle.live.size() > 10000) pop_one();
    }
    if (handles.size() > 60000) handles.erase(handles.begin(), handles.begin() + 30000);
    if (testing::Test::HasFatalFailure()) return;
  }

  // Drain and verify the full remaining order.
  while (!oracle.live.empty()) {
    pop_one();
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(SimOracle, MillionOpsMatchReferenceModel) {
  // 4 independent seeds x 250k ops = 1M operations against the model.
  for (const std::uint64_t seed : {11U, 22U, 33U, 44U}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_ops(seed, 250000);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimOracle, CancelStormsMatchReferenceModel) {
  // Alternating build-up and mass-cancel phases: most scheduled events die
  // before firing, retracting slots all over the calendar while the model
  // checks the survivors' order.
  Pcg32 rng{99};
  Simulation sim;
  Oracle oracle;
  std::vector<TrackedId> alive;
  std::vector<std::uint64_t> fired_tokens;
  std::uint64_t next_token = 1;
  std::uint64_t next_seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const double t =
          std::ceil(sim.now().to_seconds()) + static_cast<double>(rng.uniform_int(0, 500));
      const std::uint64_t token = next_token++;
      const EventId id =
          sim.schedule_at(at(t), [&fired_tokens, token] { fired_tokens.push_back(token); });
      oracle.live.emplace(RefKey{t, next_seq}, token);
      oracle.token_key.emplace(token, RefKey{t, next_seq});
      ++next_seq;
      alive.push_back(TrackedId{id, token});
    }
    // Cancel ~75% of everything still alive, newest first.
    for (std::size_t i = alive.size(); i-- > 0;) {
      if (!rng.bernoulli(0.75)) continue;
      const TrackedId h = alive[i];
      if (!oracle.token_key.contains(h.token)) continue;
      EXPECT_TRUE(sim.cancel(h.id));
      oracle.live.erase(oracle.token_key.at(h.token));
      oracle.token_key.erase(h.token);
    }
    // Pop half of the survivors; verify order against the model.
    for (std::size_t i = oracle.live.size() / 2; i-- > 0;) {
      ASSERT_TRUE(sim.step());
      const auto front = oracle.live.begin();
      EXPECT_EQ(sim.now(), at(front->first.first));
      ASSERT_EQ(fired_tokens.back(), front->second);
      oracle.token_key.erase(front->second);
      oracle.live.erase(front);
    }
    ASSERT_EQ(sim.pending_events(), oracle.live.size());
    alive.erase(alive.begin(),
                alive.begin() + static_cast<std::ptrdiff_t>(alive.size() / 2));
  }
  while (sim.step()) {
    const auto front = oracle.live.begin();
    ASSERT_NE(front, oracle.live.end());
    ASSERT_EQ(fired_tokens.back(), front->second);
    oracle.live.erase(front);
  }
  EXPECT_TRUE(oracle.live.empty());
}

}  // namespace
}  // namespace xres
