// Move-only callable wrapper with inline small-buffer storage.
//
// The discrete-event hot path stores one callback per scheduled event.
// std::function only keeps trivially-small targets inline (16 bytes in
// libstdc++) and heap-allocates everything else — which is nearly every
// capture in this codebase (`this` + an id + a nested completion callback
// already overflows it), so the old event loop paid an allocator round-trip
// per event. InlineFunction stores any nothrow-movable callable up to
// `InlineBytes` directly in the object; only oversized or throwing-move
// targets fall back to the heap. Move-only (no copy), so it also accepts
// move-only captures (std::unique_ptr, moved-in std::function) that
// std::function rejects outright.
//
// Semantics match the std::function subset the simulator needs: construct
// from any callable, move, test against nullptr, invoke. Invoking an empty
// InlineFunction is checked (ORION_CHECK), not UB.
#ifndef SRC_COMMON_INLINE_FUNCTION_H_
#define SRC_COMMON_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace common {

template <typename Signature, std::size_t InlineBytes = 64>
class InlineFunction;

// Callables that can be empty: function pointers, std::function and
// InlineFunction of any size.
template <typename T>
struct IsNullableCallable : std::is_pointer<T> {};
template <typename Signature>
struct IsNullableCallable<std::function<Signature>> : std::true_type {};
template <typename Signature, std::size_t InlineBytes>
struct IsNullableCallable<InlineFunction<Signature, InlineBytes>> : std::true_type {};

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace<D>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  // Assign-from-callable: destroys the old target and constructs the new one
  // directly in place — the hot path stores callbacks without the temporary
  // InlineFunction (and its extra relocation) an assign-through-constructor
  // would cost.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& f) {
    Reset();
    Emplace<D>(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) { return f.ops_ == nullptr; }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) { return f.ops_ != nullptr; }

  // Const like std::function's: a hook captured by a non-mutable lambda
  // stays callable. The target itself may still mutate its state.
  R operator()(Args... args) const {
    ORION_CHECK_MSG(ops_ != nullptr, "invoking empty InlineFunction");
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

  // True when the current target lives in the inline buffer (test hook).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct the target from `from` into `to`, destroying `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
    // Trivially-copyable inline targets (the common capture: raw pointers +
    // scalars) relocate as a plain byte copy and skip the destroy call —
    // no indirect calls on the simulator's move-heavy hot path.
    bool trivial;
  };

  // Stores `f` unless it is a null callable (an empty std::function or
  // InlineFunction of another size, a null function pointer): like
  // std::function, wrapping an empty callable yields an empty one, so a
  // completion hook passed on through a wider callback type still tests
  // false.
  template <typename D, typename F>
  void Emplace(F&& f) {
    if constexpr (IsNullableCallable<D>::value) {
      if (!static_cast<bool>(static_cast<const D&>(f))) {
        return;
      }
    }
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      ops_ = &InlineModel<D>::kOps;
    } else {
      ::new (static_cast<void*>(&storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapModel<D>::kOps;
    }
  }

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  struct InlineModel {
    static R Invoke(void* storage, Args&&... args) {
      return (*static_cast<D*>(storage))(std::forward<Args>(args)...);
    }
    static void Relocate(void* from, void* to) noexcept {
      D* f = static_cast<D*>(from);
      ::new (to) D(std::move(*f));
      f->~D();
    }
    static void Destroy(void* storage) noexcept { static_cast<D*>(storage)->~D(); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy, /*inline_storage=*/true,
                                 /*trivial=*/std::is_trivially_copyable_v<D> &&
                                     std::is_trivially_destructible_v<D>};
  };

  template <typename D>
  struct HeapModel {
    static D*& Ptr(void* storage) { return *static_cast<D**>(storage); }
    static R Invoke(void* storage, Args&&... args) {
      return (*Ptr(storage))(std::forward<Args>(args)...);
    }
    static void Relocate(void* from, void* to) noexcept {
      ::new (to) D*(Ptr(from));  // pointer move: no target relocation
    }
    static void Destroy(void* storage) noexcept { delete Ptr(storage); }
    static constexpr Ops kOps = {&Invoke, &Relocate, &Destroy, /*inline_storage=*/false,
                                 /*trivial=*/false};
  };

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->trivial) {
        std::memcpy(&storage_, &other.storage_, InlineBytes);
      } else {
        other.ops_->relocate(&other.storage_, &storage_);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) {
        ops_->destroy(&storage_);
      }
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) mutable std::byte storage_[InlineBytes];
};

}  // namespace common
}  // namespace orion

#endif  // SRC_COMMON_INLINE_FUNCTION_H_
