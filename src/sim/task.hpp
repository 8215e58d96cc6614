// gcs::sim -- Task: the callback a scheduled event carries.
//
// A Task is a function pointer plus a 32-byte inline buffer holding the
// callable's captures, so the whole record is trivially copyable and
// scheduling an event never touches the allocator.  Only trivially
// copyable callables that fit the buffer are stored inline; that covers
// every capture on the simulator's message path ([this, node],
// [this, message], [this, from, to, edge], [this, topology event],
// [this, batch id]).  Anything else -- a std::function, a lambda holding
// a vector -- is rejected at compile time.
#ifndef GCS_SIM_TASK_HPP
#define GCS_SIM_TASK_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gcs::sim {

class Task {
 public:
  static constexpr std::size_t kInlineBytes = 32;
  static constexpr std::size_t kInlineAlign = 8;

  // True when a callable of type F can live in the inline buffer.
  template <class F>
  static constexpr bool fits_inline = std::is_trivially_copyable_v<F> &&
                                      sizeof(F) <= kInlineBytes &&
                                      alignof(F) <= kInlineAlign;

  Task() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Task>>>
  explicit Task(F&& fn) : call_(&invoke<D>) {
    static_assert(fits_inline<D>,
                  "Task stores only trivially copyable callables of at most "
                  "32 bytes inline");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
  }

  // Runs the stored callable; a default-constructed Task holds none.
  void operator()() { call_(buf_); }

 private:
  template <class D>
  static void invoke(void* buf) {
    (*std::launder(static_cast<D*>(buf)))();
  }

  void (*call_)(void*) = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes] = {};
};

}  // namespace gcs::sim

#endif  // GCS_SIM_TASK_HPP
