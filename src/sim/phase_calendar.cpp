#include "sim/phase_calendar.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xres {

CalendarSlot PhaseCalendar::open(CalendarClient* client, std::uint32_t tag) {
  XRES_CHECK(client != nullptr, "calendar client must be non-null");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    XRES_CHECK(slots_.size() < kMaxSlots, "phase calendar slot space exhausted");
    if (slots_.size() == capacity_) grow();
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[index].client = client;
  slots_[index].tag = tag;
  return CalendarSlot{index};
}

CalendarSlot PhaseCalendar::open(CalendarClient* client) {
  const CalendarSlot slot = open(client, 0);
  slots_[static_cast<std::uint32_t>(slot)].tag = static_cast<std::uint32_t>(slot);
  return slot;
}

void PhaseCalendar::close(CalendarSlot slot) {
  retract(slot);
  slots_[static_cast<std::uint32_t>(slot)].client = nullptr;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
}

void PhaseCalendar::reject_republish() {
  XRES_CHECK(false, "calendar slot is already published");
  __builtin_unreachable();
}

void PhaseCalendar::repair() {
  for (const std::uint32_t index : dirty_) {
    slots_[index].dirty = false;
    // The running winner stays in registers and only the sibling is read
    // back: reloading a just-written 16-byte key in one load would defeat
    // store-to-load forwarding on every level. Live keys are unique, so the
    // match needs no left/right tie rule. Stop once a match's winner is
    // unchanged: everything above it already agrees.
    std::size_t node = capacity_ + index;
    EventKey winner = leaf_key(entries_[index]);
    tree_[node] = winner;
    for (; node > 1; node >>= 1) {
      const EventKey sibling = tree_[node ^ 1];
      const bool sibling_wins = xres::earlier(sibling, winner);
      winner.hi = sibling_wins ? sibling.hi : winner.hi;
      winner.lo = sibling_wins ? sibling.lo : winner.lo;
      EventKey& parent = tree_[node >> 1];
      if (parent.hi == winner.hi && parent.lo == winner.lo) break;
      parent = winner;
    }
  }
  dirty_.clear();
}

void PhaseCalendar::grow() {
  capacity_ = std::max<std::size_t>(4, 2 * capacity_);
  entries_.resize(capacity_, kNoEntry);
  slots_.reserve(capacity_);
  dirty_.reserve(capacity_);
  if (tree_built_) rebuild();
}

void PhaseCalendar::rebuild() {
  for (const std::uint32_t index : dirty_) slots_[index].dirty = false;
  dirty_.clear();
  tree_.assign(2 * capacity_, kNoEventKey);
  for (std::size_t index = 0; index < capacity_; ++index) {
    tree_[capacity_ + index] = leaf_key(entries_[index]);
  }
  for (std::size_t node = capacity_ - 1; node >= 1; --node) {
    const EventKey& left = tree_[2 * node];
    const EventKey& right = tree_[2 * node + 1];
    tree_[node] = xres::earlier(right, left) ? right : left;
  }
}

}  // namespace xres
