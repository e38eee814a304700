#pragma once

/// \file callback.hpp
/// SmallCallback: the event engine's type-erased `void()` callable.
///
/// `std::function<void()>` served this role originally, but it costs the hot
/// path twice: libstdc++'s inline buffer is only two words, so any capture
/// beyond 16 bytes heap-allocates (one malloc/free per scheduled event), and
/// it drags in copy machinery the engine never uses. SmallCallback is
/// move-only with a 48-byte inline buffer — sized so every capture the
/// simulator's clients actually schedule (see docs/PERFORMANCE.md for the
/// audit) stays inline, including a whole `std::function<void()>` (32 bytes,
/// the self-scheduling-tick idiom in tests and benchmarks). Larger or
/// over-aligned callables still work via a heap fallback, they just pay the
/// allocation the hot path avoids.
///
/// Dispatch is a single ops-table pointer (invoke / relocate / destroy), so
/// an engaged callback is exactly one branch + one indirect call, and the
/// whole object is 56 bytes — a queued callback's slab cell (callback +
/// slot generation, see simulation.hpp) fits one cache line.

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace xres {

class SmallCallback {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineCapacity = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when a callable of type \p F (after decay) is stored inline.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= kInlineCapacity &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  constexpr SmallCallback() noexcept = default;
  constexpr SmallCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (stores_inline<F>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(buffer_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  SmallCallback(SmallCallback&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) relocate_from(other);
    other.ops_ = nullptr;
  }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) relocate_from(other);
      other.ops_ = nullptr;
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  /// Destroy the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(buffer_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the callable from \p from into \p to, destroying the
    /// source. nullptr means trivially relocatable: copying the raw buffer
    /// is the move (trivially-copyable inline callables, and heap storage
    /// where the buffer just holds the owning pointer). Most events the
    /// simulator schedules capture only pointers and PODs, so the common
    /// move is a 48-byte memcpy instead of an indirect call.
    void (*relocate)(void* from, void* to) noexcept;
    /// nullptr when destruction is a no-op (trivially destructible inline
    /// callables) so reset() on the hot path skips the indirect call.
    void (*destroy)(void* storage) noexcept;
  };

  /// Steal \p other's callable; ops_ must already equal other.ops_ and be
  /// non-null. Does not clear other.ops_.
  void relocate_from(SmallCallback& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buffer_, buffer_);
    } else {
      std::memcpy(buffer_, other.buffer_, kInlineCapacity);
    }
  }

  template <typename D>
  struct InlineOps {
    static void invoke(void* storage) { (*std::launder(static_cast<D*>(storage)))(); }
    static void relocate(void* from, void* to) noexcept {
      D* src = std::launder(static_cast<D*>(from));
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void destroy(void* storage) noexcept {
      std::launder(static_cast<D*>(storage))->~D();
    }
    static constexpr Ops ops{&invoke,
                             std::is_trivially_copyable_v<D> ? nullptr : &relocate,
                             std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& ptr(void* storage) { return *std::launder(static_cast<D**>(storage)); }
    static void invoke(void* storage) { (*ptr(storage))(); }
    static void destroy(void* storage) noexcept { delete ptr(storage); }
    // relocate is nullptr: moving the owning pointer is a buffer copy.
    static constexpr Ops ops{&invoke, nullptr, &destroy};
  };

  alignas(kInlineAlign) std::byte buffer_[kInlineCapacity];
  const Ops* ops_{nullptr};
};

}  // namespace xres
