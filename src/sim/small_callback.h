// SmallCallback — a move-only void() callable with small-buffer storage.
//
// The event queue schedules millions of callbacks per simulated second;
// std::function would heap-allocate for any capture larger than its tiny
// internal buffer (typically two pointers). Every *hot-path* callback in
// this codebase captures at most a `this` pointer plus a few ints, so a
// 48-byte inline buffer (kInlineBytes) makes the per-packet schedule path
// allocation-free. Larger callables still work — they fall back to the
// heap — which once-per-flow closures like submit_flow's [this, flow] do.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace opera::sim {

class SmallCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  SmallCallback(SmallCallback&& other) noexcept { move_from(other); }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  // Precondition: non-empty (diagnosable in debug builds, unlike a raw
  // null-pointer call).
  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Replaces the held callable with `f`, constructed in place: one
  // construction, no relocation through a temporary SmallCallback.
  template <typename F>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

 private:
  // Precondition: empty.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  struct Ops {
    void (*invoke)(void* buf);
    // Move-construct `to` from `from`, then destroy `from`'s value.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](void* from, void* to) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* buf) noexcept { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) { (**std::launder(reinterpret_cast<Fn**>(buf)))(); },
      [](void* from, void* to) noexcept {
        *reinterpret_cast<Fn**>(to) = *std::launder(reinterpret_cast<Fn**>(from));
      },
      [](void* buf) noexcept { delete *std::launder(reinterpret_cast<Fn**>(buf)); },
  };

  void move_from(SmallCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace opera::sim
