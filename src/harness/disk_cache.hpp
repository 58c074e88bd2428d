/**
 * @file
 * A durable on-disk result store so the expensive 64-combination
 * exhaustive sweeps are simulated once and shared by every bench
 * binary and every process. Values are flat double vectors; keys are
 * caller-constructed strings that embed a configuration fingerprint.
 *
 * Format v3 (one binary file):
 *
 *     [64-byte header]  magic "EBMCBIN3", format version, app-catalog
 *                       version, machine float-ABI fingerprint
 *     [frame]*          u32 magic | u32 keyLen | u32 valueCount |
 *                       key bytes | valueCount raw doubles |
 *                       u64 checksum over key and value bits
 *
 * The store is append-only: put() appends CRC-framed records under an
 * exclusive `flock` with group commit (a burst of concurrent put()s
 * collapses into a few fsync'ed batched appends), so persist I/O is
 * O(new entries). Loading scans frames once with O(1) per-record
 * work. Duplicate keys are legal — later frames win — and `compact()`
 * rewrites the store sorted by key, so a compacted store is
 * byte-identical for a given entry set no matter what order, how many
 * threads, or how many processes appended.
 *
 * Corruption handling is frame-by-frame: a torn tail (a killed writer
 * mid-append) truncates the file back to the last valid frame; a bad
 * header, a foreign machine, a file without the v3 magic, or mid-file
 * frame corruption quarantines the file to `<path>.quarantined` and
 * recomputes. A frame that runs past the end of the file is a torn
 * tail only when no valid frame starts after it.
 *
 * Cross-process sharing: appends from different processes interleave
 * under `flock`, `refresh()` folds in frames other processes appended
 * (the read side of same-host lease fills, lease_provider.hpp), and
 * a compaction holds the lock through its rename, after which every
 * process reopens the new file. The process elected to coordinate
 * this store's fills keeps its Coordinator here (adoptLeaseServer).
 *
 * Thread safety: all public operations may be called concurrently.
 * The in-memory map is one hash map under one mutex; the append
 * protocol is single-writer and coalescing.
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
     */
    explicit DiskCache(std::string path,
                       FaultInjector *injector = nullptr);

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
     * permissions), or forced with EBM_CACHE_READONLY=1
     * (RuntimeConfig::cacheReadOnly). Reads, get(),
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
     * Fold in every frame appended since the last scan, then rewrite
     * the store as one sorted-by-key frame sequence (tmp + fsync +
     * rename), all under the store's exclusive flock, so concurrent
     * compactions and appends from other processes serialize on it.
     * A compacted store is byte-identical for a given entry set.
     */
    bool compact();

    std::size_t size() const;

    const std::string &path() const { return path_; }

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
     * Default cache location: `<EBM_CACHE_DIR>/<file>` when
     * RuntimeConfig::cacheDir is set, else `<file>` in the working
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

    void load();
    /**
     * Scan v3 frames in [@p begin, @p end) of @p data, appending
     * parsed records to @p out. @return the offset just past the last
     * valid frame; sets @p torn when the scan stopped on a frame cut
     * off by @p end with no valid frame after it (torn tail), and
     * @p corrupt when it stopped on damage (bad bytes, or a frame cut
     * short with a valid frame after it).
     */
    static std::size_t scanFrames(const char *data, std::size_t begin,
                                  std::size_t end,
                                  std::vector<Entry> &out, bool &torn,
                                  bool &corrupt);
    /** Merge parsed records into the map, later records winning. */
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
    /** Write the entries sorted to a temp file and rename it over the
     * store. Expects ioMu_ and the store's flock held. @return the
     * bytes written, 0 on failure. */
    std::size_t writeCompactedLocked();
    /** Fold in frames appended past the scan cursor. Expects ioMu_
     * and the store's flock held. @return the entries merged. */
    std::size_t foldInLocked(int fd);
    /**
     * Open the store (created when @p create; else read-write, or
     * read-only when that fails) and take its exclusive flock,
     * reopening until the locked inode is the one at the path: a
     * peer's compaction may rename a new file over it while this
     * process waits, and frames written to the replaced inode would
     * be lost. A file other than the one scanned last restarts the
     * scan cursor. Expects ioMu_ held. @return the fd, or -1 (warned
     * about when @p create).
     */
    int openLockedStore(bool create);
    /** Append one group-commit batch under flock; updates counters. */
    bool appendBatch(const std::vector<Entry> &batch);

    std::string path_;
    FaultInjector *injector_;
    IoShim io_; ///< Injectable write/fsync seam (common/io_fault.hpp).
    bool readOnly_ = false;
    /** Guards entries_. */
    mutable std::mutex mapMu_;
    EntryMap entries_;
    LoadReport loadReport_;
    /** Max fencing epoch noted so far (echoed by appendBatch). */
    std::atomic<std::uint64_t> fencingEpoch_{0};

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};

    /** Guards the group-commit protocol state below (never entries_). */
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
    /** The file scanOffset_ refers to (device and inode). */
    std::uint64_t scanDev_ = 0;
    std::uint64_t scanIno_ = 0;

    mutable std::mutex serverMu_;
    std::unique_ptr<Coordinator> leaseServer_;
};

} // namespace ebm
