/**
 * @file
 * Standard allocator that maps whole pages straight from the kernel.
 *
 * For side tables built beside long-lived heap data: a buffer taken
 * from the malloc heap of the building thread and freed again changes
 * which free chunks later allocations land in, and with glibc that
 * can decide whether a large freed region at the top of the heap is
 * trimmed and faulted in again on its next use.  Mapped buffers leave
 * the heap as they found it.  Each allocation costs a system call and
 * rounds up to whole pages, so use this only for large buffers.
 */

#ifndef MEMBW_COMMON_PAGE_ALLOCATOR_HH
#define MEMBW_COMMON_PAGE_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace membw {

template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > static_cast<std::size_t>(-1) / sizeof(T))
            throw std::bad_alloc();
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, std::size_t n) { munmap(p, n * sizeof(T)); }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const
    {
        return true;
    }
};

/**
 * Page-mapped scratch array, zero-filled by the kernel and unmapped
 * when it goes out of scope.  Pages it never touches cost address
 * space only.
 */
template <typename T>
class PageArray
{
  public:
    explicit PageArray(std::size_t n)
        : n_(n), p_(n ? PageAllocator<T>().allocate(n) : nullptr)
    {
    }
    ~PageArray()
    {
        if (p_)
            PageAllocator<T>().deallocate(p_, n_);
    }
    PageArray(const PageArray &) = delete;
    PageArray &operator=(const PageArray &) = delete;

    T *data() const { return p_; }

  private:
    std::size_t n_;
    T *p_;
};

} // namespace membw

#endif // MEMBW_COMMON_PAGE_ALLOCATOR_HH
