/**
 * @file
 * An atomically replaceable std::shared_ptr, for publishing immutable
 * state to lock-free readers.
 *
 * This is std::atomic<std::shared_ptr<T>> with the memory orders spelled
 * out. libstdc++ 12 implements that type with a spin lock in the low
 * bit of its control-block word, but load() releases the lock with a
 * relaxed RMW, so nothing orders a reader's read of the stored pointer
 * before the next store() overwrites it — a data race in the C++ model,
 * which ThreadSanitizer reports. Here the same one-word spin lock is
 * taken with acquire and released with release on both paths. The
 * critical sections are a pointer copy plus a reference-count
 * increment (load) or a pointer swap (store); the displaced value is
 * destroyed after the lock is released.
 */

#ifndef QDEL_UTIL_ATOMIC_SHARED_PTR_HH
#define QDEL_UTIL_ATOMIC_SHARED_PTR_HH

#include <atomic>
#include <memory>
#include <utility>

namespace qdel {

template <typename T>
class AtomicSharedPtr
{
  public:
    AtomicSharedPtr() = default;
    AtomicSharedPtr(const AtomicSharedPtr &) = delete;
    AtomicSharedPtr &operator=(const AtomicSharedPtr &) = delete;

    std::shared_ptr<T>
    load() const
    {
        lock();
        std::shared_ptr<T> copy = value_;
        busy_.store(false, std::memory_order_release);
        return copy;
    }

    void
    store(std::shared_ptr<T> next)
    {
        lock();
        value_.swap(next);
        busy_.store(false, std::memory_order_release);
    }

  private:
    void
    lock() const
    {
        while (busy_.exchange(true, std::memory_order_acquire)) {
            while (busy_.load(std::memory_order_relaxed)) {
            }
        }
    }

    mutable std::atomic<bool> busy_{false};
    std::shared_ptr<T> value_;
};

} // namespace qdel

#endif // QDEL_UTIL_ATOMIC_SHARED_PTR_HH
