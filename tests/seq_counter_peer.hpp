#pragma once

// Test-only access to a Simulation's shared insertion counter, so a test
// can start just below the 32-bit seq wrap (EventQueue::renumber_seqs).

#include <cstdint>

#include "sim/simulation.hpp"

namespace xres {

/// Reaches the shared insertion counter (EventQueue::next_seq_ inside a
/// Simulation); a friend of both classes.
class SeqCounterTestPeer {
 public:
  static void preset(Simulation& sim, std::uint64_t next_seq) {
    sim.queue_.next_seq_ = next_seq;
  }
  static std::uint64_t next_seq(const Simulation& sim) { return sim.queue_.next_seq_; }
};

}  // namespace xres
