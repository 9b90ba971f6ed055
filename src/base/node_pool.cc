#include "base/node_pool.h"

#include <sanitizer/asan_interface.h>

#include <new>

#include "base/logging.h"

namespace rio {

NodePool::~NodePool()
{
    for (size_t b = 0; b < kMaxBytes / kGrain; ++b) {
        while (Spare *s = spare_[b]) {
            ASAN_UNPOISON_MEMORY_REGION(s, (b + 1) * kGrain);
            spare_[b] = s->next;
            ::operator delete(s);
        }
    }
}

void *
NodePool::do_allocate(size_t bytes, size_t align)
{
    RIO_ASSERT(align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
               "NodePool: over-aligned block");
    if (bytes == 0 || bytes > kMaxBytes)
        return ::operator new(bytes);
    const size_t b = bin(bytes);
    Spare *s = spare_[b];
    if (!s)
        return ::operator new((b + 1) * kGrain);
    ASAN_UNPOISON_MEMORY_REGION(s, (b + 1) * kGrain);
    spare_[b] = s->next;
    return s;
}

void
NodePool::do_deallocate(void *p, size_t bytes, size_t /*align*/)
{
    if (bytes == 0 || bytes > kMaxBytes) {
        ::operator delete(p);
        return;
    }
    const size_t b = bin(bytes);
    Spare *s = static_cast<Spare *>(p);
    s->next = spare_[b];
    spare_[b] = s;
    ASAN_POISON_MEMORY_REGION(s, (b + 1) * kGrain);
}

} // namespace rio
