// Task: the scheduler's allocation-free unit of work.
//
// A move-only type-erased callable with 64 bytes of inline storage.
// std::function<void()> — the previous task representation — copies its
// target, requires it to be copyable, and heap-allocates once the closure
// outgrows the implementation's tiny SBO (typically 16–32 bytes). Every
// fork/join post paid that allocation, and ThreadPool::submit paid a
// second one for the shared_ptr<packaged_task> wrapper. Task removes both:
// any nothrow-movable callable up to kInlineBytes (enough for a handful of
// captured pointers/shared_ptrs) lives directly inside the Task object,
// which itself lives inside a pooled TaskNode or an injection-queue cell —
// zero heap traffic on the post/steal/run hot path. Oversized or
// throwing-move callables transparently fall back to the heap.
//
// Unlike std::function, invocation does not require copyability, so tasks
// may own move-only state (promises, unique_ptrs). operator() does not
// consume the target; the scheduler destroys the Task after running it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pdc::parallel {

class Task {
 public:
  /// Inline storage size. Chosen so {shared_ptr, shared_ptr, two words} —
  /// the shape of the library's own scheduler closures — stays inline.
  static constexpr std::size_t kInlineBytes = 64;

  Task() noexcept = default;

  template <typename Fn,
            typename D = std::decay_t<Fn>,
            typename = std::enable_if_t<!std::is_same_v<D, Task> &&
                                        std::is_invocable_v<D&>>>
  Task(Fn&& fn) {  // NOLINT(google-explicit-constructor): by design, like std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<Fn>(fn));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<Fn>(fn)));
      ops_ = &heap_ops<D>;
    }
  }

  Task(Task&& other) noexcept { move_from(other); }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable (callable must be non-empty). Repeatable — the
  /// target is not consumed; destruction is the owner's job.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable, leaving the Task empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True when callables of type D are stored inline (no heap).
  template <typename D>
  [[nodiscard]] static constexpr bool stored_inline() noexcept {
    return fits_inline<std::decay_t<D>>();
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;  // move-construct into `to`, destroy `from`
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops inline_ops{
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* from, void* to) noexcept {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  // Heap fallback stores a single D* in the inline buffer; pointers are
  // trivially destructible, so relocate/destroy just shuttle the pointer.
  template <typename D>
  static constexpr Ops heap_ops{
      [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(*std::launder(reinterpret_cast<D**>(from)));
      },
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<D**>(s)); },
  };

  void move_from(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace pdc::parallel
