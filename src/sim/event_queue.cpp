#include "sim/event_queue.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <utility>

#include "obs/perf.hpp"
#include "sim/phase_calendar.hpp"
#include "util/check.hpp"

namespace xres {

namespace {

/// Per-queue id tag. A process-wide counter guarantees distinct salts for
/// (the first 65536) concurrently live queues, making pending()/cancel() on
/// a foreign queue's id deterministically false. The value never influences
/// event ordering or any serialized artifact, so the cross-thread
/// construction order being nondeterministic is harmless.
std::uint64_t next_salt() {
  static std::atomic<std::uint64_t> counter{0};
  // 1..65535, never 0: keeps a value-initialized EventId{0} unanswerable by
  // any queue regardless of how many queues a process creates.
  return (counter.fetch_add(1, std::memory_order_relaxed) % 0xFFFFULL) + 1;
}

}  // namespace

EventQueue::EventQueue(PhaseCalendar* calendar)
    : salt_{next_salt()}, calendar_{calendar} {}

EventQueue::~EventQueue() {
  obs::perf_add_engine(stat_scheduled_, stat_popped_, stat_cancelled_,
                       stat_compactions_);
}

bool EventQueue::decode(EventId id, std::uint32_t& slot,
                        std::uint32_t& generation) const noexcept {
  const auto raw = static_cast<std::uint64_t>(id);
  if ((raw >> (kIndexBits + kGenBits)) != salt_) return false;
  slot = static_cast<std::uint32_t>(raw & kIndexMask);
  generation = static_cast<std::uint32_t>((raw >> kIndexBits) & kGenMask);
  return true;
}

void EventQueue::heap_grow(std::size_t logical_capacity) const {
  if (logical_capacity <= heap_capacity_) return;
  const std::size_t new_capacity =
      std::max({heap_capacity_ * 2, logical_capacity, std::size_t{256}});
  // Physical layout: 3 pad cells before the root plus trailing cells so
  // the deepest child group can always be read in full (see sift_down).
  const std::size_t physical = new_capacity + 8;
  auto* raw = static_cast<HeapEntry*>(
      ::operator new[](physical * sizeof(HeapEntry), std::align_val_t{64}));
  std::size_t used = 0;
  if (heap_size_ > 0) {
    // HeapEntry is trivially copyable; relocate the whole physical span
    // (the 3 pad cells hold sentinels and come along for free).
    used = heap_size_ + 3;
    std::memcpy(raw, heap_.get(), used * sizeof(HeapEntry));
  }
  std::fill(raw + used, raw + physical, kSentinel);
  heap_.reset(raw);
  heap_capacity_ = new_capacity;
}

void EventQueue::heap_push(const HeapEntry& entry) {
  heap_grow(heap_size_ + 1);
  const std::size_t logical = heap_size_++;
  at(logical) = entry;
  sift_up(logical);
}

void EventQueue::heap_pop_root() const {
  const std::size_t n = --heap_size_;
  if (n == 0) {
    at(0) = kSentinel;
    return;
  }
  const HeapEntry tail = at(n);
  at(n) = kSentinel;
  // Cascade the min-child hole to the bottom — one comparison round per
  // level, no "is the tail small enough to stop?" check — then sift the
  // tail up from the hole. The tail came from the deepest layer, so it
  // almost always belongs near the bottom and the up-walk is ~0 steps;
  // the classic move-tail-to-root-and-sift-down pays an extra comparison
  // and a hard-to-predict branch at every level instead.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    // Load the whole child group up front: the four loads share one cache
    // line and issue in parallel, and the tournament then selects values
    // already in registers — the alternative (selecting an index, then
    // loading through it) puts a dependent load after every comparison.
    const HeapEntry e0 = at(first_child);
    const HeapEntry e1 = at(first_child + 1);
    const HeapEntry e2 = at(first_child + 2);
    const HeapEntry e3 = at(first_child + 3);
    // Whichever child wins, its own child group is one of these four
    // lines; fetching all four now overlaps the next level's (otherwise
    // dependent) loads with this level's tournament. Past-the-end
    // prefetches are harmless.
    __builtin_prefetch(&at(4 * first_child + 1));
    __builtin_prefetch(&at(4 * first_child + 5));
    __builtin_prefetch(&at(4 * first_child + 9));
    __builtin_prefetch(&at(4 * first_child + 13));
    const bool c01 = earlier(e1, e0);
    const bool c23 = earlier(e3, e2);
    const HeapEntry m01 = c01 ? e1 : e0;
    const HeapEntry m23 = c23 ? e3 : e2;
    const bool cf = earlier(m23, m01);
    at(hole) = cf ? m23 : m01;
    hole = (cf ? first_child + 2 + static_cast<std::size_t>(c23)
               : first_child + static_cast<std::size_t>(c01));
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!earlier(tail, at(parent))) break;
    at(hole) = at(parent);
    hole = parent;
  }
  at(hole) = tail;
}

void EventQueue::sift_up(std::size_t logical) {
  const HeapEntry entry = at(logical);
  while (logical > 0) {
    const std::size_t parent = (logical - 1) / 4;
    if (!earlier(entry, at(parent))) break;
    at(logical) = at(parent);
    logical = parent;
  }
  at(logical) = entry;
}

void EventQueue::sift_down(std::size_t logical) const {
  const std::size_t n = heap_size_;
  const HeapEntry entry = at(logical);
  for (;;) {
    const std::size_t first_child = 4 * logical + 1;
    if (first_child >= n) break;
    // The four children are physically contiguous and line-aligned, and
    // sentinel padding past the logical size means the full group can be
    // read with no bounds check. The tournament min keeps the two
    // first-round comparisons independent and compiles to conditional
    // moves — a serial scan here mispredicts ~50% per level on random
    // keys, which dominated sift cost.
    const std::size_t b01 = earlier(at(first_child + 1), at(first_child))
                                ? first_child + 1
                                : first_child;
    const std::size_t b23 = earlier(at(first_child + 3), at(first_child + 2))
                                ? first_child + 3
                                : first_child + 2;
    const std::size_t best = earlier(at(b23), at(b01)) ? b23 : b01;
    if (!earlier(at(best), entry)) break;
    at(logical) = at(best);
    logical = best;
  }
  at(logical) = entry;
}

void EventQueue::renumber_seqs() {
  // Order of the outstanding entries — heap and calendar merged — by their
  // (not yet wrapped) 32-bit seqs; reassigning ranks in that order
  // preserves every pairwise comparison within and across the two
  // containers, so both stay valid and replay is unaffected.
  // Each pointer is an order word: (seq << 32) | container index.
  std::vector<std::uint64_t*> order;
  order.reserve(heap_size_);
  for (std::size_t l = 0; l < heap_size_; ++l) order.push_back(&at(l).lo);
  if (calendar_ != nullptr) calendar_->collect_orders(order);
  std::sort(order.begin(), order.end(), [](const std::uint64_t* a, const std::uint64_t* b) {
    return (*a >> 32) < (*b >> 32);
  });
  std::uint64_t rank = 0;
  for (std::uint64_t* word : order) {
    *word = (rank++ << 32) | (*word & 0xFFFFFFFFULL);
  }
  next_seq_ = rank;
  if (calendar_ != nullptr) calendar_->refresh_tree();
}

EventId EventQueue::schedule(TimePoint when, EventCallback callback) {
  XRES_CHECK(static_cast<bool>(callback), "event callback must be non-empty");
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    XRES_CHECK(tags_.size() <= kIndexMask, "event queue slot space exhausted");
    idx = static_cast<std::uint32_t>(tags_.size());
    tags_.push_back(0);
    callbacks_.emplace_back();
  }
  const std::uint32_t generation = ++tags_[idx];  // even (free) -> odd (pending)
  callbacks_[idx].callback = std::move(callback);
  heap_push(EventKey::make(when, draw_seq(), idx));
  ++live_count_;
  ++stat_scheduled_;
  return encode(idx, generation);
}

bool EventQueue::cancel(EventId id) noexcept {
  std::uint32_t idx;
  std::uint32_t generation;
  if (!decode(id, idx, generation)) return false;
  if (idx >= tags_.size()) return false;
  if ((tags_[idx] & kGenMask) != generation) return false;  // fired/cancelled/stale
  ++tags_[idx];  // odd (pending) -> even (dead); invalidates all handles
  callbacks_[idx].callback.reset();
  --live_count_;
  ++stat_cancelled_;
  if (heap_size_ >= 64 && (heap_size_ - live_count_) * 2 >= heap_size_) compact_heap();
  return true;
}

void EventQueue::compact_heap() {
  ++stat_compactions_;
  std::size_t out = 0;
  for (std::size_t l = 0; l < heap_size_; ++l) {
    const HeapEntry e = at(l);
    if ((tags_[e.index()] & 1U) != 0) {
      at(out++) = e;
    } else {
      free_slots_.push_back(e.index());
    }
  }
  for (std::size_t l = out; l < heap_size_; ++l) at(l) = kSentinel;
  heap_size_ = out;
  // Bottom-up heapify: every pairwise (hi, lo) comparison is unchanged, so
  // the pop order — and therefore replay — is unaffected.
  if (out > 1) {
    for (std::size_t l = (out - 2) / 4 + 1; l-- > 0;) sift_down(l);
  }
}

bool EventQueue::pending(EventId id) const noexcept {
  std::uint32_t idx;
  std::uint32_t generation;
  if (!decode(id, idx, generation)) return false;
  if (idx >= tags_.size()) return false;
  // Ids are only minted from odd (pending) generations, so the tag compare
  // alone answers liveness.
  return (tags_[idx] & kGenMask) == generation;
}

void EventQueue::skip_dead() const {
  while (heap_size_ > 0) {
    const std::uint32_t idx = at(0).index();
    if ((tags_[idx] & 1U) != 0) return;  // live root
    free_slots_.push_back(idx);
    heap_pop_root();
  }
}

std::optional<TimePoint> EventQueue::next_time() const {
  skip_dead();
  if (heap_size_ == 0) return std::nullopt;
  return at(0).time();
}

std::optional<FiredEvent> EventQueue::pop() {
  skip_dead();
  if (heap_size_ == 0) return std::nullopt;
  const HeapEntry top = at(0);
  heap_pop_root();

  const std::uint32_t slot = top.index();
  const std::uint32_t generation = tags_[slot];
  ++tags_[slot];  // odd (pending) -> even (fired)
  // Construct in the returned optional directly: the callback moves once,
  // slab -> result.
  std::optional<FiredEvent> fired;
  fired.emplace(encode(slot, generation),
                top.time(),
                std::move(callbacks_[slot].callback));
  free_slots_.push_back(slot);
  --live_count_;
  ++stat_popped_;
  return fired;
}

void EventQueue::clear() {
  for (std::size_t l = 0; l < heap_size_; ++l) {
    const std::uint32_t idx = at(l).index();
    if ((tags_[idx] & 1U) != 0) {
      ++tags_[idx];
      callbacks_[idx].callback.reset();
    }
    free_slots_.push_back(idx);
    at(l) = kSentinel;
  }
  heap_size_ = 0;
  live_count_ = 0;
}

}  // namespace xres
