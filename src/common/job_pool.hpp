/**
 * @file
 * Small fixed-size worker pool for the harness's embarrassingly
 * parallel work (exhaustive sweeps, alone-run profiling): independent
 * simulations are dispatched onto worker threads and their results
 * committed into pre-assigned slots, so the output of a parallel run
 * is bit-identical to the serial one regardless of interleaving.
 *
 * Concurrency defaults come from an explicit constructor argument,
 * else EBM_JOBS (RuntimeConfig::jobs), else the hardware concurrency.
 * Jobs = 1 restores strictly serial behaviour; callers are expected
 * to run inline in that case rather than spawn a thread.
 *
 * The job queue is a RingBuffer with explicit back-pressure: a
 * submitter blocks once the queue is full, so a producer enumerating
 * millions of tasks never buffers more than a bounded window of them.
 * The first exception thrown by a job is captured and rethrown from
 * wait() (or the destructor's implicit wait), preserving the library's
 * structured-error model across thread boundaries.
 */
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/runtime_config.hpp"

namespace ebm {

/** Fixed-size worker pool with bounded submission back-pressure. */
class JobPool
{
  public:
    using Job = std::function<void()>;

    /**
     * @param workers     worker thread count; 0 = defaultJobs()
     * @param queue_depth pending-job window; 0 = 2 x workers
     */
    explicit JobPool(unsigned workers = 0, std::size_t queue_depth = 0)
        : workers_(workers != 0 ? workers : defaultJobs()),
          queue_(queue_depth != 0 ? queue_depth : 2 * workers_)
    {
        threads_.reserve(workers_);
        for (unsigned i = 0; i < workers_; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    ~JobPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stopping_ = true;
        }
        notEmpty_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    unsigned workers() const { return workers_; }

    /** Enqueue @p job; blocks while the pending window is full. */
    void
    submit(Job job)
    {
        {
            std::unique_lock<std::mutex> lk(mu_);
            notFull_.wait(lk, [this] { return !queue_.full(); });
            queue_.push(std::move(job));
            ++pending_;
        }
        notEmpty_.notify_one();
    }

    /**
     * Block until every submitted job has finished. Rethrows the
     * first exception any job raised (later ones are dropped), so a
     * worker-side fatal()/panic() surfaces in the dispatching thread.
     */
    void
    wait()
    {
        std::unique_lock<std::mutex> lk(mu_);
        allDone_.wait(lk, [this] { return pending_ == 0; });
        if (firstError_) {
            std::exception_ptr e = firstError_;
            firstError_ = nullptr;
            std::rethrow_exception(e);
        }
    }

    /** Resolved default concurrency, always >= 1: EBM_JOBS, else
     * the hardware concurrency (RuntimeConfig::jobs). */
    static unsigned defaultJobs() { return RuntimeConfig::get().jobs; }

  private:
    void
    workerLoop()
    {
        for (;;) {
            Job job;
            {
                std::unique_lock<std::mutex> lk(mu_);
                notEmpty_.wait(lk, [this] {
                    return stopping_ || !queue_.empty();
                });
                if (queue_.empty())
                    return; // stopping_, and nothing left to run.
                job = queue_.pop();
            }
            notFull_.notify_one();

            try {
                job();
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                if (!firstError_)
                    firstError_ = std::current_exception();
            }

            {
                std::lock_guard<std::mutex> lk(mu_);
                --pending_;
            }
            allDone_.notify_all();
        }
    }

    unsigned workers_;
    std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::condition_variable allDone_;
    RingBuffer<Job> queue_;
    std::size_t pending_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_ = nullptr;
    std::vector<std::thread> threads_;
};

} // namespace ebm
