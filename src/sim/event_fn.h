// Small-buffer type-erased callable for simulator events.
//
// The event kernel fires ~7 events per simulated packet, so the cost of the
// callable wrapper is squarely on the campaign hot path. std::function pays
// for copyability and unbounded capture sizes with a potential heap
// allocation and a double indirection per call; every callback the stack
// schedules is a move-only lambda capturing at most a `this` pointer and a
// couple of scalars. EventFn stores such callables inline (48 bytes) with a
// single manager function for move/destroy; a larger capture fails to
// compile, so scheduling an event never allocates.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wsnlink::sim {

/// Move-only `void()` callable with inline small-buffer storage.
class EventFn {
 public:
  /// Largest capture an EventFn holds (stored inline, no allocation).
  static constexpr std::size_t kInlineSize = 48;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Decayed = std::decay_t<F>;
    static_assert(sizeof(Decayed) <= kInlineSize,
                  "EventFn: capture exceeds the inline buffer");
    static_assert(alignof(Decayed) <= alignof(std::max_align_t),
                  "EventFn: capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Decayed>,
                  "EventFn: capture must be nothrow-movable");
    ::new (static_cast<void*>(buffer_)) Decayed(std::forward<F>(f));
    invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Decayed*>(p)))(); };
    manage_ = [](Op op, void* p, void* dst) {
      auto* self = std::launder(reinterpret_cast<Decayed*>(p));
      if (op == Op::kMove) ::new (dst) Decayed(std::move(*self));
      self->~Decayed();
    };
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(buffer_); }

  void Reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buffer_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kMove, kDestroy };

  void MoveFrom(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(Op::kMove, other.buffer_, buffer_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineSize];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void* src, void* dst) = nullptr;
};

}  // namespace wsnlink::sim
