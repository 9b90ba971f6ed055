/**
 * @file
 * EventFn: a move-only callable with small-buffer optimization, the
 * event-payload type of the DES hot path. The old kernel stored every
 * scheduled callback in a std::function, which heap-allocates for any
 * capture larger than two pointers and drags its copy machinery
 * through the priority queue; EventFn keeps captures up to
 * kInlineBytes in-place (covering every scheduler callback in the
 * tree) and falls back to one heap cell only beyond that.
 *
 * Deliberately tiny API: construct from any void() callable, move,
 * invoke, test for emptiness. No copies — an event fires once.
 */
#ifndef RIO_DES_EVENT_FN_H
#define RIO_DES_EVENT_FN_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rio::des {

class EventFn
{
  public:
    /** Captures up to this many bytes stay inline (no allocation):
     * room for a cluster's wire message and its target NIC (96 bytes),
     * and the most that fits one 112-byte, 16-aligned EventFn. */
    static constexpr size_t kInlineBytes = 104;

    EventFn() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventFn> &&
                  std::is_invocable_r_v<void, D &>>>
    EventFn(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            ::new (buf_) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(buf_) = new D(std::forward<F>(f));
            ops_ = &heapOps<D>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            destroy();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { destroy(); }

    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Drop the stored callable (empty afterwards). */
    void
    clear()
    {
        destroy();
        ops_ = nullptr;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*move_to)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static void
    inlineInvoke(void *p)
    {
        (*std::launder(reinterpret_cast<D *>(p)))();
    }
    template <typename D>
    static void
    inlineMoveTo(void *src, void *dst) noexcept
    {
        D *s = std::launder(reinterpret_cast<D *>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
    }
    template <typename D>
    static void
    inlineDestroy(void *p) noexcept
    {
        std::launder(reinterpret_cast<D *>(p))->~D();
    }

    template <typename D>
    static void
    heapInvoke(void *p)
    {
        (**reinterpret_cast<D **>(p))();
    }
    template <typename D>
    static void
    heapMoveTo(void *src, void *dst) noexcept
    {
        *reinterpret_cast<D **>(dst) = *reinterpret_cast<D **>(src);
    }
    template <typename D>
    static void
    heapDestroy(void *p) noexcept
    {
        delete *reinterpret_cast<D **>(p);
    }

    template <typename D>
    static constexpr Ops inlineOps = {&inlineInvoke<D>, &inlineMoveTo<D>,
                                      &inlineDestroy<D>};
    template <typename D>
    static constexpr Ops heapOps = {&heapInvoke<D>, &heapMoveTo<D>,
                                    &heapDestroy<D>};

    void
    destroy() noexcept
    {
        if (ops_)
            ops_->destroy(buf_);
    }

    void
    moveFrom(EventFn &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_)
            ops_->move_to(o.buf_, buf_);
        o.ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace rio::des

#endif // RIO_DES_EVENT_FN_H
