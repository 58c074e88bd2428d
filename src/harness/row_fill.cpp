#include "harness/row_fill.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>

#include "common/job_pool.hpp"
#include "common/log.hpp"
#include "harness/disk_cache.hpp"
#include "harness/lease_provider.hpp"

namespace ebm {

std::uint64_t
tlpSortKey(const TlpCombo &combo)
{
    std::uint64_t key = 1;
    for (const std::uint32_t t : combo)
        key += t;
    return key;
}

namespace {

/**
 * Chaos kill: die the way the kernel kills a worker — SIGKILL, no
 * destructors, no lease cleanup. Peers must recover, and that
 * recovery is what the chaos suites test.
 */
[[noreturn]] void
crashNow()
{
    (void)::kill(::getpid(), SIGKILL);
    for (;;)
        ::pause();
}

} // namespace

std::vector<FilledRow>
fillRows(DiskCache &cache, const RowFillOptions &options,
         const std::vector<FillRow> &rows, const SimulateRow &simulate)
{
    LeaseProvider *const lease = options.lease;
    std::vector<FilledRow> filled(rows.size());
    // 1 = another worker held the row at dispatch; assembled in the
    // wait phase. Bytes, not vector<bool>: workers write disjoint
    // elements concurrently.
    std::vector<std::uint8_t> deferred(rows.size(), 0);

    // Echo the lease's fencing epoch into the store header: epochs
    // past the first mean the row changed hands (a takeover), and a
    // store written under takeovers should say so until compaction
    // renders it canonical again.
    auto noteEpoch = [&](std::size_t i) {
        const std::uint64_t epoch = lease->ownedEpoch(rows[i].key);
        if (epoch > 1)
            cache.noteFencingEpoch(epoch);
    };

    // Fold in a row a cooperating worker finished since the caller's
    // probe: a completed row's lease is already gone (released after
    // the durable publish), so leases alone cannot tell "done" from
    // "never started" — the authoritative store can (the shared file
    // for same-host peers, the coordinator's store over TCP).
    auto probePeer = [&](std::size_t i) {
        auto v = lease->fetch(rows[i].key, options.shape);
        if (!v)
            return false;
        filled[i] = {RowSource::Peer, std::move(*v)};
        return true;
    };

    // Simulate an owned row (or any row, unleased) and make the
    // outcome durable.
    auto simulateRow = [&](std::size_t i) {
        const FillRow &row = rows[i];
        // Crash point: the lease is held, nothing is durable yet.
        // Peers must see the lease go stale and take the row over.
        if (lease != nullptr && row.crashClaimHeld)
            crashNow();

        // Span the whole simulation with a background heartbeat so a
        // row longer than the staleness window never looks abandoned
        // to peers (inert without a lease).
        std::optional<LeaseHeartbeater> beat(std::in_place, lease,
                                             row.key);

        std::optional<std::vector<double>> values = simulate(i);
        if (!values) {
            // Durable skip marker: waiting workers replicate the skip
            // instead of polling a row that will never appear.
            beat.reset();
            if (lease != nullptr)
                lease->markSkipped(row.key);
            filled[i] = {RowSource::Skipped, {}};
            return;
        }

        cache.put(row.key, *values);
        if (lease != nullptr) {
            // Publish before dropping the lease: peers read "lease
            // gone" as "result durable". Same-host peers force the
            // covering group commit of the shared store; TCP workers
            // stream the CRC-framed record to the coordinator, whose
            // own writer commits it.
            lease->publish(row.key, *values);
            // Crash point: result durable, lease left behind. Peers
            // break the stale lease and re-probe the store.
            if (row.crashPostPut)
                crashNow();
            // Stop the background heartbeat before dropping the lease
            // so a late tick can't mistake our own release for a
            // takeover.
            const bool was_fenced = beat->fenced();
            beat.reset();
            if (was_fenced || !lease->release(row.key)) {
                // A peer fenced us out mid-row and owns it now: our
                // durable result is a byte-identical duplicate
                // compute, not the one waiters consume.
                warn("RowFill: fenced while computing " + row.key +
                     "; result kept as a duplicate");
            }
        }
        filled[i] = {RowSource::Simulated, std::move(*values)};
    };

    // Dispatch gate: under a lease a worker re-probes the store (peers
    // may have finished the row already), leases the row right before
    // simulating it, and re-probes once more after winning the lease
    // (the owner may have released — result durable — between probe
    // and acquisition). Cooperating workers thus split the missing
    // rows by arrival instead of duplicating them; a row someone else
    // still holds is deferred to the wait phase below.
    auto runRow = [&](std::size_t i) {
        if (lease != nullptr) {
            if (probePeer(i))
                return;
            if (!lease->tryAcquire(rows[i].key)) {
                deferred[i] = 1;
                return;
            }
            noteEpoch(i);
            if (probePeer(i)) {
                lease->release(rows[i].key);
                return;
            }
        }
        simulateRow(i);
    };

    std::vector<std::size_t> order(rows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&rows](std::size_t a, std::size_t b) {
                         return rows[a].sortKey > rows[b].sortKey;
                     });

    const auto workers = static_cast<std::uint32_t>(
        std::min<std::size_t>(options.jobs, rows.size()));
    if (workers <= 1) {
        for (const std::size_t i : order)
            runRow(i);
    } else {
        JobPool pool(workers);
        for (const std::size_t i : order)
            pool.submit([&runRow, i] { runRow(i); });
        pool.wait();
    }

    // Wait phase (leased fills only): rows other workers held are
    // assembled in row order. The lease protocol closes every gap: a
    // finished owner's result appears on the next fetch, a killed
    // owner's lease goes stale (immediately, when its connection
    // drops) and is taken over, and a skipping owner leaves
    // a durable marker we replicate — so this loop always terminates,
    // and the assembled rows are the ones a single worker would have
    // produced.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (deferred[i] == 0)
            continue;
        for (;;) {
            if (probePeer(i))
                break;
            const LeaseProvider::State state = lease->peek(rows[i].key);
            if (state == LeaseProvider::State::Skipped) {
                filled[i] = {RowSource::Skipped, {}};
                break;
            }
            if (state == LeaseProvider::State::Active) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                continue;
            }
            // Absent: an owner takeover race, or the owner crashed
            // between its durable result and its release (the
            // re-probe covers the result landing after this
            // iteration's fetch). Stale: the owner stopped
            // heartbeating. Either way, lease the row ourselves;
            // duplicates are byte-identical anyway.
            const bool owned = state == LeaseProvider::State::Absent
                                   ? lease->tryAcquire(rows[i].key)
                                   : lease->breakStale(rows[i].key);
            if (!owned)
                continue;
            noteEpoch(i);
            if (probePeer(i))
                lease->release(rows[i].key);
            else
                simulateRow(i);
            break;
        }
    }
    return filled;
}

} // namespace ebm
