/**
 * @file
 * The row-fill engine: everything between "this key missed the store"
 * and "this slot holds a value", shared by every table, profile and
 * online-run fill (Exhaustive::sweep, ProfileDb::profile,
 * runOnlineJobs, and through the first two the advisor's cold fills).
 *
 * A caller probes the store itself, in its own row order, and hands
 * the misses to fillRows() together with a simulate callback. The
 * engine then:
 *
 *   - submits rows to a JobPool by descending sort key, ties in row
 *     order (the end-of-fill barrier waits for the last row, so the
 *     expensive rows go out first);
 *   - under a LeaseProvider, runs the dispatch gate per row: re-probe
 *     the authoritative store, lease the row, echo a takeover epoch
 *     into the store header, re-probe once more, and only then
 *     simulate — with an in-run heartbeat spanning the simulation;
 *   - persists a simulated row (put, then publish before release, so
 *     peers read "lease gone" as "result durable"), or records a
 *     durable skip marker when the callback gives up on the row;
 *   - assembles rows other workers still held, in row order, by
 *     waiting on their leases: a finished owner's result appears on
 *     the next fetch, a dead owner's stale lease is taken over, and a
 *     skip marker is replicated.
 *
 * Submission order never changes a result: every row's outcome lands
 * in its own pre-assigned slot, and the simulation is deterministic,
 * so tables and compacted store bytes are identical at any job count
 * and under any mix of cooperating workers.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "harness/store_format.hpp"

namespace ebm {

class DiskCache;
class LeaseProvider;

/** One store key that missed and must be filled. */
struct FillRow
{
    std::string key;
    /** Submission priority: larger keys are submitted first, equal
     * keys in row order. */
    std::uint64_t sortKey = 0;
    /** Chaos crash points, pre-drawn by the caller. Under a lease the
     * process SIGKILLs itself while holding the row's lease before
     * simulating (crashClaimHeld), or after publishing its result but
     * before releasing the lease (crashPostPut). */
    bool crashClaimHeld = false;
    bool crashPostPut = false;
};

/** Where a filled row's values came from. */
enum class RowSource : std::uint8_t {
    Simulated, ///< This process ran the callback and persisted it.
    Peer,      ///< Another worker's durable result, fetched.
    Skipped,   ///< Given up on (here or by the owning peer).
};

/** The value one FillRow ended up with. */
struct FilledRow
{
    RowSource source = RowSource::Skipped;
    std::vector<double> values; ///< Empty when skipped.
};

/** What distinguishes one fill from another. */
struct RowFillOptions
{
    /** Cooperating-worker leases; null = fill alone. Not owned. */
    LeaseProvider *lease = nullptr;
    /** Worker threads; at most 1 runs every row inline. */
    std::uint32_t jobs = 1;
    /** Each row's record shape: a peer's result of any other shape
     * is a miss. */
    RecordShape shape;
};

/**
 * Simulate row @p i of the fill (an index into the rows passed to
 * fillRows()). @return the row's values, or nullopt to skip the row.
 * May throw; the exception propagates out of fillRows() after the
 * pool drains. Called from worker threads, at most once per row.
 */
using SimulateRow =
    std::function<std::optional<std::vector<double>>(std::size_t i)>;

/**
 * Fill every row of @p rows and persist the simulated ones to
 * @p cache. @return one FilledRow per row, in row order.
 */
std::vector<FilledRow> fillRows(DiskCache &cache,
                                const RowFillOptions &options,
                                const std::vector<FillRow> &rows,
                                const SimulateRow &simulate);

/**
 * Sort key for a row simulating @p combo: 1 + the sum of its TLP
 * levels. More ready warps fill more issue slots and make more memory
 * traffic, so a row's cost grows with its total TLP; the +1 keeps an
 * all-ones combo above zero.
 */
std::uint64_t tlpSortKey(const TlpCombo &combo);

} // namespace ebm
