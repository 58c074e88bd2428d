/**
 * @file
 * The on-chip crossbar connecting SIMT cores to memory partitions.
 *
 * Two independent networks are modeled (request: cores -> partitions,
 * response: partitions -> cores), each as a crossbar with per-input
 * virtual output queues and an iSLIP-like round-robin separable
 * allocator: every cycle, each output grants one of its requesting
 * inputs in round-robin order, and each input accepts one grant in
 * round-robin order. Accepted flits incur a fixed traversal latency.
 *
 * Hot-path layout: VOQs are fixed-capacity ring buffers and output
 * ports growing ones (no steady-state allocation), and each output
 * keeps an occupancy bitmask of its non-empty input VOQs, so the
 * allocator's round-robin scan is a find-first-set over the mask
 * instead of a walk over every input.
 * Each network reports the earliest in-flight arrival per output
 * (nextArrival), which the GPU's response timing wheel reads.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "mem/mem_request.hpp"

namespace ebm {

/**
 * One direction of the crossbar, carrying payloads of type T from
 * numInputs ports to numOutputs ports.
 */
template <typename T>
class CrossbarNetwork
{
  public:
    CrossbarNetwork(std::uint32_t num_inputs, std::uint32_t num_outputs,
                    std::uint32_t queue_depth, std::uint32_t latency)
        : latency_(latency),
          numInputs_(num_inputs),
          maskWords_((num_inputs + 63) / 64),
          grantPointer_(num_outputs, 0),
          inputMask_(static_cast<std::size_t>(num_outputs) * maskWords_,
                     0),
          outputReady_(num_outputs, RingBuffer<InFlight>(latency + 1))
    {
        voqs_.reserve(static_cast<std::size_t>(num_inputs) *
                      num_outputs);
        for (std::uint32_t i = 0; i < num_inputs; ++i)
            for (std::uint32_t o = 0; o < num_outputs; ++o)
                voqs_.emplace_back(queue_depth);
    }

    /** Can input @p in enqueue a flit for output @p out? */
    bool
    canAccept(std::uint32_t in, std::uint32_t out) const
    {
        return !voq(in, out).full();
    }

    /** Enqueue a flit (caller must have checked canAccept). */
    void
    inject(std::uint32_t in, std::uint32_t out, T flit)
    {
        RingBuffer<T> &q = voq(in, out);
        q.push(std::move(flit));
        ++voqFlits_;
        maskWord(out, in / 64) |= 1ull << (in % 64);
    }

    /**
     * Run one allocation cycle at time @p now. Each output grants at
     * most one input (round-robin from its pointer); granted flits
     * become visible at the output after the traversal latency.
     * @p on_grant(out) runs once per grant.
     */
    template <typename OnGrant>
    void
    tick(Cycle now, OnGrant &&on_grant)
    {
        if (voqFlits_ == 0)
            return;
        const auto n_out =
            static_cast<std::uint32_t>(grantPointer_.size());
        for (std::uint32_t out = 0; out < n_out; ++out) {
            const std::uint32_t in =
                firstRequesterFrom(out, grantPointer_[out]);
            if (in == kNoInput)
                continue;
            RingBuffer<T> &q = voq(in, out);
            outputReady_[out].pushGrow(InFlight{now + latency_, q.pop()});
            on_grant(out);
            --voqFlits_;
            if (q.empty())
                maskWord(out, in / 64) &= ~(1ull << (in % 64));
            grantPointer_[out] = (in + 1) % numInputs_;
        }
    }

    void
    tick(Cycle now)
    {
        tick(now, [](std::uint32_t) {});
    }

    /** Has a flit arrived at output @p out by time @p now? */
    bool
    hasArrival(std::uint32_t out, Cycle now) const
    {
        const auto &q = outputReady_[out];
        return !q.empty() && q.front().readyAt <= now;
    }

    /** readyAt of the earliest flit in flight to @p out, or never. */
    Cycle
    nextArrival(std::uint32_t out) const
    {
        // FIFO + fixed latency: the front is the earliest arrival.
        const auto &q = outputReady_[out];
        return q.empty() ? kNeverCycle : q.front().readyAt;
    }

    /** Pop a flit that has arrived at output @p out by time @p now. */
    bool
    tryEject(std::uint32_t out, Cycle now, T &flit)
    {
        if (!hasArrival(out, now))
            return false;
        auto &q = outputReady_[out];
        flit = std::move(q.front().payload);
        q.pop();
        return true;
    }

    /** Total flits buffered anywhere in this network. */
    std::size_t
    occupancy() const
    {
        std::size_t n = voqFlits_;
        for (const auto &q : outputReady_)
            n += q.size();
        return n;
    }

    void
    clear()
    {
        for (auto &q : voqs_)
            q.clear();
        for (auto &q : outputReady_)
            q.clear();
        std::fill(grantPointer_.begin(), grantPointer_.end(), 0u);
        std::fill(inputMask_.begin(), inputMask_.end(), 0ull);
        voqFlits_ = 0;
    }

    struct InFlight
    {
        Cycle readyAt;
        T payload;
    };

    /**
     * Every queued or in-flight flit plus the allocator's round-robin
     * pointers and occupancy masks. VOQ ring buffers are copied whole
     * (they are plain values), so head offsets — irrelevant to FIFO
     * semantics but cheap to keep — restore exactly.
     */
    struct Snapshot
    {
        std::vector<RingBuffer<T>> voqs;
        std::vector<std::uint32_t> grantPointer;
        std::vector<std::uint64_t> inputMask;
        std::vector<RingBuffer<InFlight>> outputReady;
        std::size_t voqFlits = 0;

        std::size_t
        heapBytes() const
        {
            std::size_t n = voqs.capacity() * sizeof(RingBuffer<T>) +
                            grantPointer.capacity() * sizeof(std::uint32_t) +
                            inputMask.capacity() * sizeof(std::uint64_t) +
                            outputReady.capacity() *
                                sizeof(RingBuffer<InFlight>);
            for (const auto &q : voqs)
                n += q.capacity() * sizeof(T);
            for (const auto &q : outputReady)
                n += q.capacity() * sizeof(InFlight);
            return n;
        }
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{voqs_, grantPointer_, inputMask_, outputReady_,
                        voqFlits_};
    }

    void
    restore(const Snapshot &snap)
    {
        if (snap.voqs.size() != voqs_.size() ||
            snap.grantPointer.size() != grantPointer_.size() ||
            snap.inputMask.size() != inputMask_.size() ||
            snap.outputReady.size() != outputReady_.size())
            fatal("CrossbarNetwork: snapshot shape mismatch");
        voqs_ = snap.voqs;
        grantPointer_ = snap.grantPointer;
        inputMask_ = snap.inputMask;
        outputReady_ = snap.outputReady;
        voqFlits_ = snap.voqFlits;
    }

  private:

    static constexpr std::uint32_t kNoInput = 0xffffffffu;

    RingBuffer<T> &voq(std::uint32_t in, std::uint32_t out)
    {
        return voqs_[static_cast<std::size_t>(in) *
                         grantPointer_.size() +
                     out];
    }
    const RingBuffer<T> &voq(std::uint32_t in, std::uint32_t out) const
    {
        return voqs_[static_cast<std::size_t>(in) *
                         grantPointer_.size() +
                     out];
    }

    std::uint64_t &maskWord(std::uint32_t out, std::uint32_t word)
    {
        return inputMask_[static_cast<std::size_t>(out) * maskWords_ +
                          word];
    }
    const std::uint64_t &maskWord(std::uint32_t out,
                                  std::uint32_t word) const
    {
        return inputMask_[static_cast<std::size_t>(out) * maskWords_ +
                          word];
    }

    /**
     * First input with a queued flit for @p out, scanning round-robin
     * from @p start (wrapping), via the occupancy bitmask.
     */
    std::uint32_t
    firstRequesterFrom(std::uint32_t out, std::uint32_t start) const
    {
        // Pass 1: bits at or after start. Pass 2: wrap to the front.
        const std::uint32_t start_word = start / 64;
        for (std::uint32_t w = start_word; w < maskWords_; ++w) {
            std::uint64_t bits = maskWord(out, w);
            if (w == start_word)
                bits &= ~0ull << (start % 64);
            if (bits != 0)
                return w * 64 +
                       static_cast<std::uint32_t>(
                           std::countr_zero(bits));
        }
        for (std::uint32_t w = 0; w <= start_word && w < maskWords_;
             ++w) {
            std::uint64_t bits = maskWord(out, w);
            if (w == start_word)
                bits &= ~(~0ull << (start % 64));
            if (bits != 0)
                return w * 64 +
                       static_cast<std::uint32_t>(
                           std::countr_zero(bits));
        }
        return kNoInput;
    }

    std::uint32_t latency_;
    std::uint32_t numInputs_;
    std::uint32_t maskWords_;
    /** Flattened [input][output] ring buffers. */
    std::vector<RingBuffer<T>> voqs_;
    std::vector<std::uint32_t> grantPointer_;
    /** Per-output bitmask of inputs with a non-empty VOQ. */
    std::vector<std::uint64_t> inputMask_;
    /**
     * Per-output flits in flight, in grant order. Unbounded (stores
     * need no credit), so the rings grow to the run's high-water mark.
     */
    std::vector<RingBuffer<InFlight>> outputReady_;
    std::size_t voqFlits_ = 0;
};

/** The full core <-> memory-partition interconnect. */
class Crossbar
{
  public:
    explicit Crossbar(const GpuConfig &cfg)
        : request_(cfg.numCores, cfg.numPartitions,
                   cfg.icntInputQueueDepth, cfg.icntRequestLatency),
          response_(cfg.numPartitions, cfg.numCores,
                    cfg.icntOutputQueueDepth, cfg.icntResponseLatency)
    {
    }

    CrossbarNetwork<MemRequest> &requestNet() { return request_; }
    CrossbarNetwork<MemResponse> &responseNet() { return response_; }
    const CrossbarNetwork<MemRequest> &requestNet() const
    {
        return request_;
    }
    const CrossbarNetwork<MemResponse> &responseNet() const
    {
        return response_;
    }

    /**
     * Tick both networks; @p on_response_grant(core) runs for each
     * response flit granted toward @p core, which then arrives at
     * now + cfg.icntResponseLatency.
     */
    template <typename OnGrant>
    void
    tick(Cycle now, OnGrant &&on_response_grant)
    {
        request_.tick(now);
        response_.tick(now, on_response_grant);
    }

    void
    tick(Cycle now)
    {
        tick(now, [](std::uint32_t) {});
    }

    void
    clear()
    {
        request_.clear();
        response_.clear();
    }

    /** Both directions' full queue and allocator state. */
    struct Snapshot
    {
        CrossbarNetwork<MemRequest>::Snapshot request;
        CrossbarNetwork<MemResponse>::Snapshot response;

        std::size_t
        heapBytes() const
        {
            return request.heapBytes() + response.heapBytes();
        }
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{request_.snapshot(), response_.snapshot()};
    }

    void
    restore(const Snapshot &snap)
    {
        request_.restore(snap.request);
        response_.restore(snap.response);
    }

  private:
    CrossbarNetwork<MemRequest> request_;
    CrossbarNetwork<MemResponse> response_;
};

} // namespace ebm
