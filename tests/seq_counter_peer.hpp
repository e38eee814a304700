#pragma once

// Test-only access to a Simulation's insertion counter, so a test can start
// it past 2^32 or just below its 2^40 limit.

#include <cstdint>

#include "sim/simulation.hpp"

namespace xres {

/// Reaches Simulation::next_seq_; a friend of Simulation.
class SeqCounterTestPeer {
 public:
  static void preset(Simulation& sim, std::uint64_t next_seq) { sim.next_seq_ = next_seq; }
  static std::uint64_t next_seq(const Simulation& sim) { return sim.next_seq_; }
};

}  // namespace xres
