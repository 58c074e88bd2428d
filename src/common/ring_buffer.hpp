/**
 * @file
 * Ring buffer: the FIFO for every queue in the model (crossbar virtual
 * output queues and output ports, partition input queues, L1-hit
 * completions) and for the worker pool's job window. Storage is one
 * flat array; push/pop are index arithmetic on it, so steady-state
 * operation performs no allocation.
 *
 * Two disciplines share the type. A hardware queue with back-pressure
 * calls push(), which panics when full(): producers check full() and
 * stall. A queue with no structural bound (in-flight crossbar flits,
 * which include fire-and-forget stores) calls pushGrow(), which
 * doubles the array when full and keeps FIFO order; once a run reaches
 * its high-water mark it allocates no more.
 */
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace ebm {

/** FIFO backed by one flat allocation. */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity)
        : buf_(capacity == 0 ? 1 : capacity), capacity_(capacity)
    {
        if (capacity == 0)
            fatal("RingBuffer: capacity must be > 0");
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= capacity_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }

    /** Enqueue; the caller must have checked full(). */
    void
    push(T item)
    {
        if (full())
            panic("RingBuffer: push into a full queue");
        pushGrow(std::move(item));
    }

    /** Enqueue, doubling the capacity first if the queue is full. */
    void
    pushGrow(T item)
    {
        if (full())
            grow();
        buf_[wrap(head_ + count_)] = std::move(item);
        ++count_;
    }

    /** Front element; the caller must have checked empty(). */
    T &
    front()
    {
        if (empty())
            panic("RingBuffer: front of an empty queue");
        return buf_[head_];
    }

    const T &
    front() const
    {
        if (empty())
            panic("RingBuffer: front of an empty queue");
        return buf_[head_];
    }

    /** Dequeue the front element. */
    T
    pop()
    {
        if (empty())
            panic("RingBuffer: pop from an empty queue");
        T item = std::move(buf_[head_]);
        head_ = wrap(head_ + 1);
        --count_;
        return item;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const
    {
        return i >= capacity_ ? i - capacity_ : i;
    }

    /** Double the array, unwrapping the queue to start at index 0. */
    void
    grow()
    {
        std::vector<T> bigger(2 * capacity_);
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(buf_[wrap(head_ + i)]);
        buf_.swap(bigger);
        capacity_ = buf_.size();
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace ebm
