#pragma once

/// \file phase_calendar.hpp
/// The phase calendar: the Simulation's side table of per-client timers.
///
/// Nearly every event a resilience simulation executes is one
/// application's next work/checkpoint boundary, and each application has
/// at most one such boundary (plus one wall-time cap) pending at any time.
/// Routing those through the general event queue costs a callback
/// construction, a heap push and a heap pop per phase. The calendar holds
/// them instead as fixed *slots*: a client opens a slot once, then
/// publishes and retracts a time for it as often as it likes. Publishing
/// stores no closure — a firing slot calls its client's
/// CalendarClient::on_calendar(tag) through a plain interface pointer.
///
/// Entries are ordered by (time, seq) exactly like the event queue. Seqs
/// are drawn from the paired EventQueue's insertion counter (Simulation
/// does this), so calendar entries and queued events merge into the one
/// deterministic total order; the queue renumbers both together before its
/// 32-bit seqs can wrap.
///
/// Layout: each slot's entry is a plain (time, order) pair — the order
/// word is (seq << 32) | slot, the same as the low half of an EventKey —
/// and an indexed min-priority queue over them in the form of a winner
/// (tournament) tree of packed EventKeys: leaf i mirrors slot i, every
/// internal node holds the earlier of its two children, so the root is the
/// next entry to fire and its index half names the slot. The tree is built
/// by the first top(); from then on publishing, retracting and firing only
/// write the slot's entry and mark it dirty, and top() first refreshes the
/// dirty leaves and replays their paths to the root, one branch-free match
/// per level. A phase chain thus costs one path replay per phase (the
/// fired slot is cleared and republished between two top() calls), and a
/// loop that tracks a few known slots itself (entry(), fire(); the direct
/// trial engine) never builds the tree at all. Slots are recycled, so the
/// tree is sized by the peak number of simultaneously open slots (2 per
/// running application).

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace xres {

/// Receiver of a calendar slot's firings.
class CalendarClient {
 public:
  /// Slot \p tag (the value given to PhaseCalendar::open) reached the
  /// front of the simulation; the slot is no longer published.
  virtual void on_calendar(std::uint32_t tag) = 0;

 protected:
  ~CalendarClient() = default;
};

/// Handle of one calendar slot; valid from open() to close().
enum class CalendarSlot : std::uint32_t {};

class PhaseCalendar {
 public:
  /// One slot's published entry. An unpublished slot holds +infinity and
  /// an all-ones order, which sorts after every published entry.
  struct Entry {
    TimePoint time;
    std::uint64_t order;  ///< (seq << 32) | slot index

    [[nodiscard]] bool published() const { return order != kUnpublished; }
  };

  /// Strictly-less in the (time, seq) order.
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.order < b.order);
  }

  PhaseCalendar() = default;
  PhaseCalendar(const PhaseCalendar&) = delete;
  PhaseCalendar& operator=(const PhaseCalendar&) = delete;

  /// Open an unpublished slot that fires \p client with \p tag.
  CalendarSlot open(CalendarClient* client, std::uint32_t tag);

  /// Retract (if published) and release \p slot for reuse.
  void close(CalendarSlot slot);

  /// The entry of \p slot published at \p when with insertion seq \p seq.
  [[nodiscard]] static Entry make_entry(CalendarSlot slot, TimePoint when,
                                        std::uint32_t seq) {
    return Entry{when, (static_cast<std::uint64_t>(seq) << 32) |
                           static_cast<std::uint32_t>(slot)};
  }

  /// Publish \p entry (made by make_entry() for \p slot). The slot must
  /// not be published already.
  void publish(CalendarSlot slot, const Entry& entry) {
    const auto index = static_cast<std::uint32_t>(slot);
    if (entries_[index].published()) [[unlikely]] reject_republish();
    set_entry(index, entry);
  }

  /// Unpublish \p slot. Returns false when it was not published.
  bool retract(CalendarSlot slot) {
    const auto index = static_cast<std::uint32_t>(slot);
    if (!entries_[index].published()) return false;
    set_entry(index, kNoEntry);
    return true;
  }

  [[nodiscard]] bool published(CalendarSlot slot) const { return entry(slot).published(); }

  /// \p slot's entry (unpublished: see Entry).
  [[nodiscard]] const Entry& entry(CalendarSlot slot) const {
    return entries_[static_cast<std::uint32_t>(slot)];
  }

  /// Key of the earliest published slot, kNoEventKey when none is.
  [[nodiscard]] const EventKey& top() {
    if (!tree_built_) {
      if (capacity_ == 0) return kNoEventKey;
      tree_built_ = true;
      rebuild();
    } else if (!dirty_.empty()) {
      repair();
    }
    return tree_[1];
  }

  /// Unpublish the published \p slot and return its client and tag, for
  /// the caller to deliver the firing.
  struct Fired {
    CalendarClient* client;
    std::uint32_t tag;
  };
  Fired fire(CalendarSlot slot) {
    const auto index = static_cast<std::uint32_t>(slot);
    set_entry(index, kNoEntry);
    return Fired{slots_[index].client, slots_[index].tag};
  }

  /// Number of published slots (a scan: diagnostics only).
  [[nodiscard]] std::size_t size() const;

  /// EventQueue::renumber_seqs support: append the order word of every
  /// published entry to \p out, then — after their seqs were rewritten in
  /// an order-preserving way — call refresh_tree().
  void collect_orders(std::vector<std::uint64_t*>& out);
  void refresh_tree() {
    if (tree_built_) rebuild();
  }

 private:
  static constexpr std::uint64_t kUnpublished = ~0ULL;
  static constexpr Entry kNoEntry{TimePoint::infinity(), kUnpublished};

  struct Slot {
    CalendarClient* client{nullptr};
    std::uint32_t tag{0};
    bool dirty{false};  ///< entry changed since the last repair()
  };

  void set_entry(std::uint32_t index, const Entry& entry) {
    entries_[index] = entry;
    if (tree_built_ && !slots_[index].dirty) {
      slots_[index].dirty = true;
      dirty_.push_back(index);
    }
  }

  /// The tree-leaf form of \p entry.
  [[nodiscard]] static EventKey leaf_key(const Entry& entry) {
    return entry.published() ? EventKey{EventKey::time_to_bits(entry.time.to_seconds()),
                                        entry.order}
                             : kNoEventKey;
  }

  /// Refresh the dirty leaves and replay their paths to the root.
  void repair();

  /// (Re)build the whole tree from entries_.
  void rebuild();

  /// Double the slot capacity (at least 4) and rebuild.
  void grow();

  /// Throws the already-published CheckError (kept out of the inline path).
  [[noreturn]] static void reject_republish();

  /// Per-slot entries; sized to capacity_.
  std::vector<Entry> entries_;
  /// tree_[1] is the root, leaves occupy [capacity_, 2 * capacity_);
  /// tree_[0] is unused. Empty until the first top().
  std::vector<EventKey> tree_;
  bool tree_built_{false};
  std::size_t capacity_{0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> dirty_;
};

}  // namespace xres
