// Growable ring-buffer FIFO.
//
// Every queue on the kernel path (device streams, scheduler software queues,
// serving batchers) pushes at the back and pops at the front, one element at
// a time, at a depth that stays small. std::deque allocates a block every
// few pushes for elements of a hundred-odd bytes (a 512-byte block holds
// two or three scheduler ops), and a vector with a moving head must
// compact. Ring keeps its elements in one power-of-two buffer indexed
// modulo its capacity: once the buffer has grown to a queue's peak depth, a
// steady-state push or pop neither allocates nor moves any other element.
// Growth moves the elements once, oldest first, into a buffer twice the
// size. Elements need only be nothrow-move-constructible (move-only ones are
// fine).
#ifndef SRC_COMMON_RING_H_
#define SRC_COMMON_RING_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace common {

template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Ring relocates elements on growth; their move must not throw");

  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = T*;
    using reference = T&;

    Iter() = default;
    T& operator*() const { return (*ring_)[index_]; }
    T* operator->() const { return &(*ring_)[index_]; }
    Iter& operator++() {
      ++index_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.index_ == b.index_; }

   private:
    friend class Ring;
    Iter(Ring* ring, std::size_t index) : ring_(ring), index_(index) {}
    Ring* ring_ = nullptr;
    std::size_t index_ = 0;
  };

 public:
  using value_type = T;
  using iterator = Iter;

  Ring() = default;
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      Release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() { Release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  // Element `i` counted from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & (capacity_ - 1)]; }

  T& front() {
    ORION_CHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    ORION_CHECK(size_ > 0);
    return slots_[head_];
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    GrowIfFull();
    T* slot = &slots_[(head_ + size_) & (capacity_ - 1)];
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }
  void push_back(const T& value) { emplace_back(value); }

  void push_front(T&& value) {
    GrowIfFull();
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    ::new (static_cast<void*>(&slots_[head_])) T(std::move(value));
    ++size_;
  }

  void pop_front() {
    ORION_CHECK(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Destroys every element; the buffer is kept.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void GrowIfFull() {
    if (size_ < capacity_) {
      return;
    }
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      ::new (static_cast<void*>(&slots[i])) T(std::move(from));
      std::destroy_at(&from);
    }
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  void Release() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
      slots_ = nullptr;
      capacity_ = 0;
    }
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // zero or a power of two
  std::size_t head_ = 0;      // slot of the front element
  std::size_t size_ = 0;
};

}  // namespace common
}  // namespace orion

#endif  // SRC_COMMON_RING_H_
