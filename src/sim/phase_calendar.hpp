#pragma once

/// \file phase_calendar.hpp
/// The phase calendar: the Simulation's one pending-event set.
///
/// Every pending event of a simulation is a calendar *slot*: each
/// application runtime's next phase boundary and wall-time cap, the direct
/// trial engine's failure stream, and every callback queued with
/// Simulation::schedule_at() — arrivals, deadlines, failures, PFS
/// completions — for which the Simulation opens a slot of its own. A client
/// opens a slot once, then publishes and retracts a time for it as often as
/// it likes. Publishing stores no closure — a firing slot calls its
/// client's CalendarClient::on_calendar(tag) through a plain interface
/// pointer (a queued callback waits in the Simulation's slab, indexed by
/// slot).
///
/// Entries are ordered by (time, seq). Seqs are drawn from the
/// Simulation's one insertion counter, so entries published and callbacks
/// queued in some order fire in that order on a time tie. A seq is 40 bits
/// and never reused: the Simulation refuses the draw after 2^40.
///
/// Layout: each slot's entry is a plain (time, order) pair — the order
/// word is (seq << 24) | slot, the same as the low half of an EventKey —
/// and an indexed min-priority queue over them in the form of a winner
/// (tournament) tree of packed 16-byte EventKeys: leaf i mirrors slot i,
/// every internal node holds the earlier of its two children, so the root
/// is the next entry to fire and its index half names the slot. The tree is
/// built by the first top(); from then on publishing, retracting and firing
/// only write the slot's entry and mark it dirty, and top() first refreshes
/// the dirty leaves and replays their paths to the root, one branch-free
/// match per level. A phase chain thus costs one path replay per phase (the
/// fired slot is cleared and republished between two top() calls), and a
/// loop that tracks a few known slots itself (entry(), fire(); the direct
/// trial engine) never builds the tree at all. Slots are recycled, so the
/// tree is sized by the peak number of simultaneously open slots (2 per
/// running application plus the queued callbacks).

#include <bit>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace xres {

/// Sort key of one calendar entry, packed for branchless comparison: `hi`
/// is the event time's IEEE-754 bits mapped to preserve order as unsigned
/// integers, `lo` is the entry's order word, (seq << 24) | slot. Comparing
/// (hi, lo) lexicographically is exactly the deterministic (time, seq)
/// order: the slot never decides because seqs are unique.
struct EventKey {
  std::uint64_t hi;
  std::uint64_t lo;

  [[nodiscard]] std::uint32_t index() const {
    return static_cast<std::uint32_t>(lo & 0xFFFFFFULL);
  }

  /// Order-preserving map from double to uint64: flips negative values so
  /// unsigned comparison of the results matches double comparison.
  /// (-0.0 is normalized to +0.0 first so the two zeros stay tied.)
  static std::uint64_t time_to_bits(double t) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    return (bits & (1ULL << 63)) != 0 ? ~bits : bits | (1ULL << 63);
  }
  static double bits_to_time(std::uint64_t bits) noexcept {
    return std::bit_cast<double>((bits & (1ULL << 63)) != 0 ? bits & ~(1ULL << 63) : ~bits);
  }

  [[nodiscard]] TimePoint time() const {
    return TimePoint::at(Duration::seconds(bits_to_time(hi)));
  }
};

/// Key larger than any real entry's (no finite time maps to all-ones, and
/// no seq and slot pair fills the order word): the "nothing pending" value.
inline constexpr EventKey kNoEventKey{~0ULL, ~0ULL};

/// Strictly-less in the deterministic event order: one unsigned 128-bit
/// compare of (hi, lo), which compiles to a compare and a subtract with
/// borrow — no data-dependent branch, and the shortest dependency chain a
/// winner-tree path replay can have per level.
inline bool earlier(const EventKey& a, const EventKey& b) {
  __extension__ typedef unsigned __int128 Word;
  return ((Word{a.hi} << 64) | a.lo) < ((Word{b.hi} << 64) | b.lo);
}

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
  /// Bits of the order word that hold the slot index.
  static constexpr unsigned kSlotBits = 24;
  /// Seqs are drawn from [0, kSeqLimit).
  static constexpr std::uint64_t kSeqLimit = 1ULL << 40;

  /// One slot's published entry. An unpublished slot holds +infinity and
  /// an all-ones order, which sorts after every published entry.
  struct Entry {
    TimePoint time;
    std::uint64_t order;  ///< (seq << 24) | slot index

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

  /// open() with the slot's own index as its tag.
  CalendarSlot open(CalendarClient* client);

  /// Retract (if published) and release \p slot for reuse.
  void close(CalendarSlot slot);

  /// The entry of \p slot published at \p when with insertion seq \p seq
  /// (< kSeqLimit).
  [[nodiscard]] static Entry make_entry(CalendarSlot slot, TimePoint when,
                                        std::uint64_t seq) {
    return Entry{when, (seq << kSlotBits) | static_cast<std::uint32_t>(slot)};
  }

  /// Publish \p entry (made by make_entry() for \p slot). The slot must
  /// not be published already.
  void publish(CalendarSlot slot, const Entry& entry) {
    const auto index = static_cast<std::uint32_t>(slot);
    if (entries_[index].published()) [[unlikely]] reject_republish();
    set_entry(index, entry);
    ++published_;
  }

  /// Unpublish \p slot. Returns false when it was not published.
  bool retract(CalendarSlot slot) {
    const auto index = static_cast<std::uint32_t>(slot);
    if (!entries_[index].published()) return false;
    set_entry(index, kNoEntry);
    --published_;
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
    --published_;
    return Fired{slots_[index].client, slots_[index].tag};
  }

  /// Number of published slots.
  [[nodiscard]] std::size_t size() const { return published_; }

 private:
  static constexpr std::uint64_t kUnpublished = ~0ULL;
  static constexpr Entry kNoEntry{TimePoint::infinity(), kUnpublished};
  /// Slot indices stay below this, so the largest seq and slot pair never
  /// forms the all-ones (unpublished) order word.
  static constexpr std::size_t kMaxSlots = (std::size_t{1} << kSlotBits) - 1;

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
  std::size_t published_{0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> dirty_;
};

}  // namespace xres
