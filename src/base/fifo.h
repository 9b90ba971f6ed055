/**
 * @file
 * Fifo: a FIFO queue over one circular buffer that grows by doubling
 * and never shrinks. A queue that is filled and drained for the
 * whole run (a core's work items, a NIC's Rx payload metadata) stops
 * touching the heap once it has reached its peak depth, where
 * std::deque keeps freeing and reallocating its chunks as the
 * contents move through them.
 */
#ifndef RIO_BASE_FIFO_H
#define RIO_BASE_FIFO_H

#include <utility>
#include <vector>

#include "base/types.h"

namespace rio {

/** FIFO of movable, default-constructible @p T. */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }

    template <typename U>
    void
    push(U &&v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::forward<U>(v);
        ++size_;
    }

    /** Remove and return the oldest element; its slot is left
     * moved-from. Requires !empty(). */
    T
    pop()
    {
        T v = std::move(buf_[head_]);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
        return v;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_; //!< power-of-two capacity
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace rio

#endif // RIO_BASE_FIFO_H
