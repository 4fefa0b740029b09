/**
 * @file
 * FIFO ring buffer for the simulator's per-cycle queues.
 *
 * A std::deque allocates a fresh node every few pushes as its head
 * advances; a hot queue that is pushed and popped every cycle pays for
 * that in malloc/free. Ring keeps one power-of-two array, indexes it
 * with a mask, and doubles it only when it is full, so a queue whose
 * occupancy is bounded stops allocating once it has reached its peak.
 * Like a deque's, references to elements stay valid across pushes
 * until the ring grows; reserve() the bound up front where a caller
 * holds one across a push.
 */

#ifndef DX_COMMON_RING_HH
#define DX_COMMON_RING_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace dx
{

template <typename T>
class Ring
{
  public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    T &front() { return buf_[head_ & mask_]; }
    const T &front() const { return buf_[head_ & mask_]; }

    /** The element @p i places behind the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    void
    push_back(const T &v)
    {
        if (size() == buf_.size())
            grow(buf_.empty() ? 8 : 2 * buf_.size());
        buf_[tail_++ & mask_] = v;
    }

    void pop_front() { ++head_; }

    /** Make room for @p n elements without further growth. */
    void
    reserve(std::size_t n)
    {
        if (n > buf_.size())
            grow(std::bit_ceil(n));
    }

  private:
    void
    grow(std::size_t capacity)
    {
        std::vector<T> next(capacity);
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            next[i] = std::move((*this)[i]);
        buf_.swap(next);
        mask_ = capacity - 1;
        head_ = 0;
        tail_ = n;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0; //!< free-running; masked on access
    std::size_t tail_ = 0;
};

} // namespace dx

#endif // DX_COMMON_RING_HH
