/**
 * @file
 * A durable on-disk result store so the expensive 64-combination
 * exhaustive sweeps are simulated once and shared by every bench
 * binary — and, since v3, by every *process*. Values are flat double
 * vectors; keys are caller-constructed strings that embed a
 * configuration fingerprint.
 *
 * Format v3 (one binary file):
 *
 *     [64-byte header]  magic "EBMCBIN3", format version, app-catalog
 *                       version, machine float-ABI fingerprint
 *     [frame]*          u32 magic | u32 keyLen | u32 valueCount |
 *                       key bytes | valueCount raw doubles |
 *                       u64 checksum over key and value bits
 *
 * The store is *append-only*: put() appends CRC-framed records under
 * an exclusive `flock`, with group commit — a burst of concurrent
 * put()s collapses into a handful of batched appends, each fsync'ed,
 * and a put() returns once a batched append covering its entry is
 * durable or claimed by the active writer. Appending replaces the v2
 * full-file coalescing rewrite, so persist I/O is O(new entries), not
 * O(total entries) per burst. Loading memory-maps the file and scans
 * frames once with O(1) per-record work (raw doubles are memcpy'd,
 * never re-parsed from text). Duplicate keys are legal — later frames
 * win — and `compact()` rewrites the store sorted by key (atomic
 * tmp + rename), so a compacted store is byte-identical for a given
 * entry set no matter what order, how many threads, or how many
 * processes appended.
 *
 * Corruption handling is frame-by-frame: a torn tail (a killed writer
 * mid-append) truncates the file back to the last valid frame instead
 * of quarantining the world; anything else — bad header, foreign
 * machine, mid-file frame corruption — preserves the v2 contract of
 * quarantining the file to `<path>.quarantined` and recomputing.
 * A file without the v3 magic — including the pre-v3 v1 (plain text)
 * and v2 (checksummed text) formats, which are no longer read — is
 * quarantined like any other untrusted file.
 *
 * Cross-process sharing: writers from different processes interleave
 * appends safely under `flock`, and `refresh()` folds frames appended
 * by other processes since the last scan into memory — the read side
 * of same-host lease fills (harness/lease_provider.hpp). The process
 * elected to coordinate those fills keeps its Coordinator here
 * (adoptLeaseServer), so the server lives exactly as long as the
 * store it was elected for.
 *
 * Thread safety: all public operations may be called concurrently.
 * The in-memory map is sharded by key hash (one mutex per shard); the
 * append protocol is single-writer and coalescing, exactly like the
 * v2 persist role, just appending deltas instead of rewriting.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injector.hpp"
#include "common/io_fault.hpp"

namespace ebm {

class Coordinator;

/** Durable key -> vector<double> store backed by a binary file. */
class DiskCache
{
  public:
    /** What happened while loading (and writing) the backing file. */
    struct LoadReport
    {
        std::size_t entriesLoaded = 0;
        std::size_t entriesSkipped = 0;  ///< Corrupt/truncated frames.
        std::size_t duplicateKeys = 0;   ///< Later frame won.
        bool quarantined = false;        ///< Bad file set aside.
        bool tornTailTruncated = false;  ///< Tail chopped to last frame.
        bool readOnlyMode = false;       ///< Serving without appends.
        /** Max fencing epoch stamped into the header by appenders
         * (lease_provider.hpp); 0 in clean/compacted stores. */
        std::uint64_t fencingEpoch = 0;
        std::string quarantinePath;

        // Persist-side counters (this instance's writes), so the I/O
        // amplification of a sweep is observable, not just benchmarked.
        std::uint64_t bytesWritten = 0;   ///< File bytes written.
        std::uint64_t appendBatches = 0;  ///< Group-commit batches.
        std::uint64_t entriesAppended = 0;///< Entries covered by them.
    };

    /**
     * Open (and load) the store at @p path; missing file is fine.
     *
     * @param injector optional fault injection (robustness tests)
     * @param shards   in-memory shard count; 0 = the built-in default
     *                 (16). Shard count is an in-memory concurrency
     *                 knob only — the on-disk format and the persisted
     *                 bytes are identical at every setting.
     */
    explicit DiskCache(std::string path,
                       FaultInjector *injector = nullptr,
                       std::uint32_t shards = 0);

    /** Retires an adopted lease server (Coordinator::retire) before
     * the store it serves goes away. */
    ~DiskCache();

    /** Look up @p key. */
    std::optional<std::vector<double>> get(const std::string &key) const;

    /**
     * Look up @p key, requiring exactly @p expected_size values, all
     * of them finite: a present-but-wrong-shape entry (a stale or
     * corrupt record) or one holding NaN/Inf (written by a pre-guard
     * version — well-shaped and checksummed, but garbage) is treated
     * as a miss so the caller recomputes instead of consuming it.
     */
    std::optional<std::vector<double>>
    getValidated(const std::string &key, std::size_t expected_size) const;

    /**
     * Insert @p key -> @p values and append it durably (group
     * commit): returns once a batched append covering the entry has
     * been fsync'ed, or once the active writer has claimed a batch
     * that covers it.
     */
    void put(const std::string &key, const std::vector<double> &values);

    /**
     * put() with the durability outcome surfaced: in read-only mode
     * (an unwritable store — see readOnly()) the entry is still
     * inserted in memory so this process keeps its warm view, but no
     * append is attempted and a structured Errc::CacheIo error is
     * returned. put() is tryPut() with the status dropped.
     */
    Status tryPut(const std::string &key,
                  const std::vector<double> &values);

    /**
     * Is the store degraded to read-only? Set when the backing file
     * exists but cannot be opened for writing (read-only filesystem,
     * permissions), or forced with EBM_CACHE_READONLY=1. Reads, get(),
     * and refresh() keep working; appends, torn-tail truncation, and
     * compaction are refused without touching the file.
     */
    bool readOnly() const { return readOnly_; }

    /**
     * Record the caller's fencing epoch (lease_provider.hpp): the max
     * is echoed into the store header's epoch field by subsequent
     * appends, so a store written under lease takeovers is
     * distinguishable from a clean one until compact() (which always
     * stamps 0, keeping compacted bytes canonical).
     */
    void noteFencingEpoch(std::uint64_t epoch);

    /**
     * Block until every entry enqueued by put() before this call is
     * durably appended (or its batch has failed and been counted).
     * Group commit lets put() return as soon as the active writer is
     * bound to cover its entry; cross-process coordination
     * (harness/lease_provider.hpp) must sync() before releasing a
     * row's lease, because peers read "lease gone" as "result
     * durable".
     */
    void sync();

    /**
     * Scan frames appended to the file since the last scan (by this
     * or any other process) and fold them into memory, later frames
     * winning. The read side of cross-process sweep sharding.
     *
     * @return entries merged from the newly scanned region
     */
    std::size_t refresh();

    /**
     * Offline compaction: rewrite the store as one sorted-by-key
     * frame sequence (atomic tmp + fsync + rename). A compacted store
     * is byte-identical for a given entry set regardless of append
     * history, thread count, or process count. Offline means no
     * *other process* may be appending concurrently (same-process
     * put()s serialize against it); the compacting process's own
     * in-memory view is authoritative.
     */
    bool compact();

    std::size_t size() const;

    const std::string &path() const { return path_; }

    /** In-memory shard count (diagnostics/tests). */
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /** Lookups (get/getValidated) that returned a value. */
    std::uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** Lookups that missed (including validation rejects). */
    std::uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /** Diagnostics from the constructor's load pass. */
    const LoadReport &loadReport() const { return loadReport_; }

    /** File bytes written by this instance (appends + compactions). */
    std::uint64_t bytesWritten() const;

    /** Group-commit append batches completed by this instance. */
    std::uint64_t appendBatches() const;

    /** Entries covered by completed append batches. */
    std::uint64_t entriesAppended() const;

    /** Failed persist attempts (I/O errors; entries stay in memory). */
    std::size_t persistFailures() const;

    /** One-line persist-amplification summary (bench status lines). */
    std::string persistSummaryLine() const;

    /**
     * Keep the same-host lease server this process was elected to run
     * for this store (NetLeaseProvider::joinLocal). It serves until
     * this DiskCache is destroyed.
     */
    void adoptLeaseServer(std::unique_ptr<Coordinator> server);

    /** The adopted lease server, or null when another process (or
     * none) coordinates this store. */
    const Coordinator *leaseServer() const;

    /** Format-v3 header fingerprint of this machine's float ABI. */
    static std::string machineFingerprint();

    /**
     * Default cache location: `$EBM_CACHE_DIR/<file>` when the
     * environment variable is set, else `<file>` in the working
     * directory (the historical default).
     */
    static std::string
    defaultPath(const std::string &file = "ebm_results.cache");

  private:
    using EntryMap = std::unordered_map<std::string, std::vector<double>>;

    /** One key -> values record, as parsed from or written to disk. */
    struct Entry
    {
        std::string key;
        std::vector<double> values;
        std::size_t offset = 0;  ///< Frame start (scan paths only).
    };

    /** One lock domain of the in-memory map. */
    struct Shard
    {
        mutable std::mutex mu;
        EntryMap entries;
    };

    Shard &shardOf(const std::string &key);
    const Shard &shardOf(const std::string &key) const;

    void load();
    /**
     * Scan v3 frames in [@p begin, @p end) of @p data, appending
     * parsed records to @p out. @return the offset just past the last
     * valid frame; sets @p torn when the scan stopped on a frame cut
     * off by @p end (torn tail) rather than on bad bytes (@p corrupt).
     */
    static std::size_t scanFrames(const char *data, std::size_t begin,
                                  std::size_t end,
                                  std::vector<Entry> &out, bool &torn,
                                  bool &corrupt);
    /** Merge parsed records into the shards, later records winning. */
    std::size_t mergeEntries(std::vector<Entry> &entries,
                             std::size_t *duplicates);
    /**
     * Scan and merge frames in [scanOffset_, @p file_size). Expects
     * ioMu_ and an exclusive flock held. Sets @p valid_end to the
     * offset just past the last valid frame (truncating a torn peer
     * tail when the fd is writable) and @p merged to the entries
     * folded in. @return false when the file is not a v3 store.
     */
    bool scanRegionLocked(int fd, std::uint64_t file_size,
                          std::uint64_t &valid_end,
                          std::size_t &merged);
    void quarantineAndRewrite();
    /** All shards merged (for compaction snapshots and rewrites). */
    EntryMap gatherAll() const;
    bool writeCompacted(const EntryMap &snapshot);
    /** Append one group-commit batch under flock; updates counters. */
    bool appendBatch(const std::vector<Entry> &batch);

    std::string path_;
    FaultInjector *injector_;
    IoShim io_; ///< Injectable write/fsync seam (common/io_fault.hpp).
    bool readOnly_ = false;
    std::vector<Shard> shards_;
    LoadReport loadReport_;
    /** Max fencing epoch noted so far (echoed by appendBatch). */
    std::atomic<std::uint64_t> fencingEpoch_{0};

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};

    /** Guards the group-commit protocol state below (never a shard). */
    mutable std::mutex persistMu_;
    /** Signals the writer role going idle (pending queue drained). */
    std::condition_variable persistCv_;
    std::size_t persistFailures_ = 0;
    bool writerActive_ = false;   ///< A thread holds the append role.
    std::vector<Entry> pending_;  ///< Entries awaiting a batch append.

    /** Serializes file I/O (appends, refreshes, compaction) and the
     * scan cursor within this process; `flock` serializes across
     * processes. Never acquired with persistMu_ held. */
    mutable std::mutex ioMu_;
    /** File offset up to which frames have been folded into memory. */
    std::uint64_t scanOffset_ = 0;

    mutable std::mutex serverMu_;
    std::unique_ptr<Coordinator> leaseServer_;
};

} // namespace ebm
