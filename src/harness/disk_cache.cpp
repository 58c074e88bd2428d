#include "harness/disk_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/runtime_config.hpp"
#include "harness/coordinator.hpp"
#include "harness/store_format.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

namespace {

// The v3 binary layout lives in harness/store_format.hpp, shared with
// the store_fsck scrubber so both emit identical canonical bytes.
using storefmt::entryChecksum;
using storefmt::kFencingEpochOffset;
using storefmt::kFormatVersionV3;
using storefmt::kFrameHeadBytes;
using storefmt::kFrameMagic;
using storefmt::kFrameTailBytes;
using storefmt::kHeaderSize;
using storefmt::kMagicV3;
using storefmt::kMaxKeyBytes;
using storefmt::kMaxValueCount;

/** Clean-store header (fencing epoch 0) for this build. */
std::string
buildHeader()
{
    return storefmt::buildHeader(
        static_cast<std::uint32_t>(kAppCatalogVersion),
        DiskCache::machineFingerprint());
}

using storefmt::appendFrame;

bool
preadAll(int fd, std::uint64_t off, char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n =
            ::pread(fd, data, len, static_cast<off_t>(off));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // Short file: caller sized from fstat.
        data += n;
        off += static_cast<std::uint64_t>(n);
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string
DiskCache::machineFingerprint()
{
    // Pin the properties the binary format depends on: IEEE-754
    // doubles of a known width and byte order. Anything else and
    // cached bit patterns cannot be trusted to round-trip.
    std::string fp = std::numeric_limits<double>::is_iec559
                         ? "ieee754"
                         : "nonieee";
    fp += "-d" + std::to_string(sizeof(double) * 8);
    fp += std::endian::native == std::endian::little ? "-le" : "-be";
    return fp;
}

std::string
DiskCache::defaultPath(const std::string &file)
{
    std::string path = RuntimeConfig::get().cacheDir;
    if (path.empty())
        return file;
    if (path.back() != '/')
        path += '/';
    return path + file;
}

DiskCache::DiskCache(std::string path, FaultInjector *injector)
    : path_(std::move(path)), injector_(injector), io_(injector)
{
    load();
}

DiskCache::~DiskCache()
{
    std::unique_ptr<Coordinator> server;
    {
        std::lock_guard<std::mutex> lk(serverMu_);
        server = std::move(leaseServer_);
    }
    if (server != nullptr)
        server->retire();
}

void
DiskCache::adoptLeaseServer(std::unique_ptr<Coordinator> server)
{
    std::lock_guard<std::mutex> lk(serverMu_);
    leaseServer_ = std::move(server);
}

const Coordinator *
DiskCache::leaseServer() const
{
    std::lock_guard<std::mutex> lk(serverMu_);
    return leaseServer_.get();
}

std::size_t
DiskCache::size() const
{
    std::lock_guard<std::mutex> lk(mapMu_);
    return entries_.size();
}

void
DiskCache::load()
{
    // EBM_CACHE_READONLY forces the degraded serving mode (and lets
    // the read-only path be tested deterministically even where
    // permission bits don't apply, e.g. running as root).
    readOnly_ = RuntimeConfig::get().cacheReadOnly;
    int fd = readOnly_ ? -1 : ::open(path_.c_str(), O_RDWR);
    const bool writable = fd >= 0;
    if (!writable)
        fd = ::open(path_.c_str(), O_RDONLY);
    if (fd >= 0 && !writable) {
        // The file exists but cannot be written (read-only filesystem,
        // permissions, or EBM_CACHE_READONLY): degrade to serving.
        // Entries load and get() works; appends and torn-tail
        // truncation are refused instead of failing attempt by
        // attempt.
        readOnly_ = true;
        warn("DiskCache: " + path_ +
             " is not writable; serving read-only (appends refused)");
    }
    loadReport_.readOnlyMode = readOnly_;
    if (fd < 0)
        return; // Missing file: an empty cache (read-only if forced).
    ::flock(fd, LOCK_EX);

    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return;
    }
    scanDev_ = st.st_dev;
    scanIno_ = st.st_ino;
    const auto file_size = static_cast<std::size_t>(st.st_size);
    if (file_size == 0) {
        ::close(fd);
        return;
    }

    // Read the whole file, as scanRegionLocked reads appended frames,
    // and check the magic.
    std::vector<char> buffer(file_size);
    if (!preadAll(fd, 0, buffer.data(), file_size)) {
        warn("DiskCache: cannot read " + path_ +
             "; starting with an empty cache");
        ::close(fd);
        return;
    }
    const char *data = buffer.data();

    if (file_size < sizeof kMagicV3 ||
        std::memcmp(data, kMagicV3, sizeof kMagicV3) != 0) {
        // Not a v3 store: a pre-v3 text cache (v1/v2 are no longer
        // read) or garbage. Nothing in it can be trusted, but it may
        // be valuable elsewhere — quarantine it and start fresh.
        ::close(fd);
        warn("DiskCache: " + path_ + " is not a v3 store (no " +
             std::string(kMagicV3, sizeof kMagicV3) +
             " magic); quarantining and recomputing");
        quarantineAndRewrite();
        return;
    }

    if (file_size < kHeaderSize) {
        // A writer died inside the very first header write. There was
        // nothing durable yet, so truncate rather than quarantine.
        loadReport_.tornTailTruncated = true;
        if (writable)
            (void)::ftruncate(fd, 0);
        ::close(fd);
        warn("DiskCache: " + path_ +
             " holds a torn header; truncated to empty");
        return;
    }

    const storefmt::Header header = storefmt::parseHeader(data);
    const std::uint32_t fmt = header.formatVersion;
    const std::uint32_t cat = header.catalogVersion;
    const std::string &fingerprint = header.fingerprint;
    // A nonzero epoch marks appends made under lease takeovers (the
    // fencing protocol in lease_provider.hpp); reported, not validated.
    loadReport_.fencingEpoch = header.fencingEpoch;
    fencingEpoch_.store(header.fencingEpoch, std::memory_order_relaxed);
    if (fmt != storefmt::kFormatVersionV3 ||
        cat != static_cast<std::uint32_t>(kAppCatalogVersion) ||
        fingerprint != machineFingerprint()) {
        // Wrong version, stale app catalog, or foreign machine:
        // nothing in this file can be trusted, but it may be valuable
        // elsewhere — quarantine it and start fresh.
        ::close(fd);
        warn("DiskCache: " + path_ + " header (format " +
             std::to_string(fmt) + ", catalog " + std::to_string(cat) +
             ", '" + fingerprint + "') does not match this build " +
             "(format " + std::to_string(kFormatVersionV3) +
             ", catalog " +
             std::to_string(static_cast<std::uint32_t>(
                 kAppCatalogVersion)) +
             ", '" + machineFingerprint() +
             "'); quarantining and recomputing");
        quarantineAndRewrite();
        return;
    }

    std::vector<Entry> frames;
    bool torn = false;
    bool corrupt = false;
    std::size_t valid_end =
        scanFrames(data, kHeaderSize, file_size, frames, torn, corrupt);

    // Injected torn write: the final frame loses its tail, as if the
    // writing process was killed mid-append.
    if (injector_ != nullptr &&
        injector_->shouldFire(FaultInjector::Point::CacheReadTruncate) &&
        !frames.empty()) {
        valid_end = frames.back().offset;
        frames.pop_back();
        torn = true;
    }

    mergeEntries(frames, &loadReport_.duplicateKeys);
    loadReport_.entriesLoaded = size();

    if (corrupt) {
        // Bad bytes *before* the end of the file cannot be a torn
        // append (appends only ever cut the tail): quarantine, keep
        // the valid prefix, recompute the rest.
        ++loadReport_.entriesSkipped;
        ::close(fd);
        warn("DiskCache: corrupt frame at offset " +
             std::to_string(valid_end) + " in " + path_ +
             "; quarantining the damaged file and recomputing the "
             "lost results");
        quarantineAndRewrite();
        return;
    }
    if (torn) {
        // A writer was killed mid-append: everything before the torn
        // frame is intact, so chop the tail instead of quarantining
        // the whole store.
        ++loadReport_.entriesSkipped;
        loadReport_.tornTailTruncated = true;
        if (writable)
            (void)::ftruncate(fd, static_cast<off_t>(valid_end));
        warn("DiskCache: torn tail in " + path_ + "; truncated to " +
             std::to_string(valid_end) +
             " bytes (last valid frame) and kept " +
             std::to_string(loadReport_.entriesLoaded) + " entries");
    }
    scanOffset_ = valid_end;
    ::close(fd);
}

std::size_t
DiskCache::scanFrames(const char *data, std::size_t begin,
                      std::size_t end, std::vector<Entry> &out,
                      bool &torn, bool &corrupt)
{
    torn = false;
    corrupt = false;
    std::size_t off = begin;
    while (off < end) {
        storefmt::Frame frame;
        const storefmt::FrameParse parse =
            storefmt::parseFrameAt(data, off, end, frame);
        if (parse != storefmt::FrameParse::Ok) {
            // A frame cut off by the end is a torn append only when
            // nothing valid follows it; otherwise its length field is
            // damaged, and truncating there would destroy good frames.
            if (parse == storefmt::FrameParse::Torn &&
                storefmt::nextValidFrame(data, off + 1, end) == end)
                torn = true;
            else
                corrupt = true;
            break;
        }
        Entry e;
        e.key = std::move(frame.key);
        e.values = std::move(frame.values);
        e.offset = off;
        out.push_back(std::move(e));
        off += frame.bytes;
    }
    return off;
}

std::size_t
DiskCache::mergeEntries(std::vector<Entry> &entries,
                        std::size_t *duplicates)
{
    std::lock_guard<std::mutex> lk(mapMu_);
    for (Entry &e : entries) {
        const auto it = entries_.find(e.key);
        if (it == entries_.end()) {
            entries_.emplace(std::move(e.key), std::move(e.values));
        } else {
            if (duplicates != nullptr)
                ++*duplicates;
            it->second = std::move(e.values);
        }
    }
    const std::size_t merged = entries.size();
    entries.clear();
    return merged;
}

bool
DiskCache::scanRegionLocked(int fd, std::uint64_t file_size,
                            std::uint64_t &valid_end,
                            std::size_t &merged)
{
    merged = 0;
    valid_end = file_size;
    if (scanOffset_ < kHeaderSize) {
        // We loaded an empty/missing file and a peer created the
        // store meanwhile: verify it really is one before trusting
        // frame offsets.
        char magic[sizeof kMagicV3] = {};
        if (!preadAll(fd, 0, magic, sizeof magic) ||
            std::memcmp(magic, kMagicV3, sizeof magic) != 0) {
            warn("DiskCache: " + path_ +
                 " is not a v3 store; skipping refresh");
            return false;
        }
        scanOffset_ = kHeaderSize;
    }
    if (file_size <= scanOffset_)
        return true;

    std::vector<char> region(file_size - scanOffset_);
    if (!preadAll(fd, scanOffset_, region.data(), region.size())) {
        warn("DiskCache: cannot read appended frames from " + path_);
        return false;
    }
    std::vector<Entry> frames;
    bool torn = false;
    bool corrupt = false;
    const std::size_t rel_end =
        scanFrames(region.data(), 0, region.size(), frames, torn,
                   corrupt);
    valid_end = scanOffset_ + rel_end;
    merged = mergeEntries(frames, nullptr);
    if (corrupt) {
        // Mid-run corruption from a peer survived its CRC — disk-level
        // damage. Don't quarantine a store other processes are using;
        // skip past it and let a later cold load recover.
        warn("DiskCache: corrupt appended frame at offset " +
             std::to_string(valid_end) + " in " + path_ +
             "; ignoring the damaged region");
        scanOffset_ = file_size;
        valid_end = file_size;
        return true;
    }
    if (torn) {
        // We hold the exclusive lock, so no live writer is mid-append:
        // the partial tail belongs to a killed peer. Chop it (unless
        // degraded to read-only — then just stop before the tear).
        if (!readOnly_ &&
            ::ftruncate(fd, static_cast<off_t>(valid_end)) == 0)
            warn("DiskCache: truncated a torn peer append in " +
                 path_ + " at " + std::to_string(valid_end) +
                 " bytes");
    }
    scanOffset_ = valid_end;
    return true;
}

void
DiskCache::quarantineAndRewrite()
{
    if (readOnly_) {
        // Nothing on a read-only filesystem can be moved or rewritten;
        // keep serving whatever loaded and leave repair to store_fsck
        // on a writable mount.
        warn("DiskCache: " + path_ +
             " needs quarantine/rewrite but the store is read-only; "
             "serving the valid entries only");
        return;
    }
    const std::string quarantine = path_ + ".quarantined";
    if (std::rename(path_.c_str(), quarantine.c_str()) == 0) {
        loadReport_.quarantined = true;
        loadReport_.quarantinePath = quarantine;
    } else {
        warn("DiskCache: could not quarantine " + path_ + " to " +
             quarantine);
    }
    // The original file is gone; a successful rewrite below resets
    // the scan cursor itself, a failed one leaves no file at all.
    scanOffset_ = 0;
    // Re-persist whatever survived so the next open is clean even if
    // no further put() happens.
    if (size() != 0 || loadReport_.quarantined)
        compact();
}

bool
DiskCache::compact()
{
    if (readOnly_) {
        warn("DiskCache: " + path_ +
             " is read-only; compaction/rewrite refused");
        return false;
    }
    // The injector query is serialized by the callers (constructor,
    // offline compaction), so the ordinal fault schedules used by the
    // robustness tests stay deterministic.
    if (injector_ != nullptr &&
        injector_->shouldFire(FaultInjector::Point::CacheWriteFail)) {
        warn("DiskCache: injected persist failure for " + path_);
        std::lock_guard<std::mutex> lk(persistMu_);
        ++persistFailures_;
        return false;
    }
    std::size_t wrote = 0;
    {
        std::lock_guard<std::mutex> io(ioMu_);
        // The store's exclusive flock is held from the fold-in through
        // the rename: a second compactor or an appender waits, then
        // finds the new file at the path and reopens it.
        const int fd = openLockedStore(true);
        if (fd >= 0) {
            foldInLocked(fd);
            wrote = writeCompactedLocked();
            ::close(fd);
        }
    }
    std::lock_guard<std::mutex> lk(persistMu_);
    if (wrote == 0) {
        ++persistFailures_;
        return false;
    }
    loadReport_.bytesWritten += wrote;
    return true;
}

std::size_t
DiskCache::writeCompactedLocked()
{
    // Sorted keys: deterministic bytes that diff cleanly — the same
    // file for a given entry set no matter what order frames were
    // appended in, how many threads raced, or how many processes
    // cooperated on the sweep.
    std::string buf = buildHeader();
    {
        std::lock_guard<std::mutex> lk(mapMu_);
        std::vector<EntryMap::const_iterator> sorted;
        sorted.reserve(entries_.size());
        for (auto it = entries_.cbegin(); it != entries_.cend(); ++it)
            sorted.push_back(it);
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a->first < b->first;
                  });
        for (const auto &it : sorted)
            appendFrame(buf, it->first, it->second);
    }

    // Atomic rewrite: a sibling temp file, fsync, then rename over the
    // real path. A crash mid-write leaves the old file intact.
    const std::string tmp = path_ + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    struct stat st = {};
    const bool wrote =
        fd >= 0 && io_.pwriteAll(fd, 0, buf.data(), buf.size()).ok() &&
        io_.fsyncFd(fd).ok() && ::fstat(fd, &st) == 0;
    if (fd >= 0)
        ::close(fd);
    if (!wrote || std::rename(tmp.c_str(), path_.c_str()) != 0) {
        warn("DiskCache: rewrite of " + path_ + " through " + tmp +
             " failed; results stay in memory");
        std::remove(tmp.c_str());
        return 0;
    }
    scanDev_ = st.st_dev;
    scanIno_ = st.st_ino;
    scanOffset_ = buf.size();
    return buf.size();
}

int
DiskCache::openLockedStore(bool create)
{
    for (;;) {
        int fd = ::open(path_.c_str(), O_RDWR | (create ? O_CREAT : 0),
                        0644);
        if (fd < 0 && !create)
            fd = ::open(path_.c_str(), O_RDONLY);
        if (fd < 0) {
            if (create) {
                warn("DiskCache: cannot persist to " + path_ +
                     " (directory unwritable?); results stay in memory");
            }
            return -1;
        }
        // Exclusive, not shared: a scan may truncate a torn peer tail.
        ::flock(fd, LOCK_EX);
        struct stat held = {};
        struct stat named = {};
        if (::fstat(fd, &held) == 0 && ::stat(path_.c_str(), &named) == 0 &&
            named.st_dev == held.st_dev && named.st_ino == held.st_ino) {
            if (held.st_dev != scanDev_ || held.st_ino != scanIno_) {
                // Not the file scanned last (a peer compacted it): its
                // offsets mean nothing to us, so scan it from the start.
                scanDev_ = held.st_dev;
                scanIno_ = held.st_ino;
                scanOffset_ = 0;
            }
            return fd;
        }
        // A compaction renamed a new file over the path while we
        // waited for the lock on the old one.
        ::close(fd);
    }
}

std::size_t
DiskCache::foldInLocked(int fd)
{
    struct stat st = {};
    std::uint64_t valid_end = 0;
    std::size_t merged = 0;
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) > scanOffset_ &&
        static_cast<std::uint64_t>(st.st_size) >= kHeaderSize)
        scanRegionLocked(fd, static_cast<std::uint64_t>(st.st_size),
                         valid_end, merged);
    return merged;
}

std::size_t
DiskCache::refresh()
{
    std::lock_guard<std::mutex> io(ioMu_);
    const int fd = openLockedStore(false);
    if (fd < 0)
        return 0; // Nothing persisted anywhere yet.
    const std::size_t merged = foldInLocked(fd);
    ::close(fd);
    return merged;
}

bool
DiskCache::appendBatch(const std::vector<Entry> &batch)
{
    // The injector query is serialized by the single-writer append
    // role (one query per batch, matching the v2 one-per-rewrite), so
    // ordinal fault schedules stay deterministic.
    if (injector_ != nullptr &&
        injector_->shouldFire(FaultInjector::Point::CacheWriteFail)) {
        warn("DiskCache: injected persist failure for " + path_);
        return false;
    }

    std::string buf;
    for (const Entry &e : batch)
        appendFrame(buf, e.key, e.values);

    std::uint64_t wrote = 0;
    bool ok = false;
    {
        std::lock_guard<std::mutex> io(ioMu_);
        const int fd = openLockedStore(true);
        if (fd < 0)
            return false;
        struct stat st = {};
        if (::fstat(fd, &st) == 0) {
            auto end = static_cast<std::uint64_t>(st.st_size);
            bool ready = true;
            if (end < kHeaderSize) {
                // Empty store, or a header torn by a writer killed on
                // its very first batch: (re)write the header.
                const std::string header = buildHeader();
                if (end != 0)
                    (void)::ftruncate(fd, 0);
                ready = io_.pwriteAll(fd, 0, header.data(),
                                      header.size()).ok();
                if (ready) {
                    end = kHeaderSize;
                    wrote += header.size();
                    scanOffset_ = kHeaderSize;
                }
            } else {
                // Fold in frames other processes appended since our
                // last scan, under the same exclusive lock, so our
                // append lands at the true end of valid data.
                std::size_t merged = 0;
                ready = scanRegionLocked(fd, end, end, merged);
            }
            if (ready) {
                // Echo the max fencing epoch this process appended
                // under into the header (lease_provider.hpp), while the
                // exclusive flock serializes the read-modify-write.
                // Raw pwrite, not the shim: metadata only — a torn
                // epoch field degrades reporting, never frames — and
                // keeping it off the injection stream keeps seeded
                // frame-fault schedules stable. Zero epochs (every
                // unsharded run) never touch the field, so clean-run
                // bytes are unchanged.
                const std::uint64_t epoch =
                    fencingEpoch_.load(std::memory_order_relaxed);
                if (epoch != 0) {
                    std::uint64_t on_disk = 0;
                    if (::pread(fd, &on_disk, sizeof on_disk,
                                static_cast<off_t>(
                                    kFencingEpochOffset)) ==
                            static_cast<ssize_t>(sizeof on_disk) &&
                        epoch > on_disk) {
                        (void)::pwrite(fd, &epoch, sizeof epoch,
                                       static_cast<off_t>(
                                           kFencingEpochOffset));
                    }
                }
                const Status wr =
                    io_.pwriteAll(fd, end, buf.data(), buf.size());
                ok = wr.ok() && io_.fsyncFd(fd).ok();
                if (ok) {
                    wrote += buf.size();
                    scanOffset_ = end + buf.size();
                } else {
                    // Drop our own partial append so the file stays a
                    // clean frame sequence for every other process.
                    (void)::ftruncate(fd, static_cast<off_t>(end));
                    if (!wr.ok())
                        warn("DiskCache: append I/O failed: " +
                             wr.error().toString());
                }
            }
        }
        ::close(fd);
    }
    if (!ok) {
        warn("DiskCache: append to " + path_ + " failed");
        return false;
    }
    std::lock_guard<std::mutex> lk(persistMu_);
    loadReport_.bytesWritten += wrote;
    ++loadReport_.appendBatches;
    loadReport_.entriesAppended += batch.size();
    return true;
}

std::optional<std::vector<double>>
DiskCache::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mapMu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

std::optional<std::vector<double>>
DiskCache::getValidated(const std::string &key, RecordShape shape) const
{
    std::vector<double> values;
    {
        std::lock_guard<std::mutex> lk(mapMu_);
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        values = it->second;
    }
    if (!shape.fits(values)) {
        warn("DiskCache: entry " + key + " has " +
             std::to_string(values.size()) + " values, expected " +
             shape.describe() + "; recomputing");
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // A NaN/Inf written by a pre-guard version is well-shaped and
    // passes its checksum, but no valid run ever measures one — treat
    // it as a miss so the caller recomputes a trustworthy value.
    for (const double v : values) {
        if (!std::isfinite(v)) {
            warn("DiskCache: entry " + key +
                 " holds a non-finite value; recomputing");
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return values;
}

void
DiskCache::put(const std::string &key, const std::vector<double> &values)
{
    (void)tryPut(key, values);
}

void
DiskCache::noteFencingEpoch(std::uint64_t epoch)
{
    // Lock-free fetch-max: appendBatch reads whatever maximum has been
    // noted when it stamps the header.
    std::uint64_t cur = fencingEpoch_.load(std::memory_order_relaxed);
    while (epoch > cur &&
           !fencingEpoch_.compare_exchange_weak(
               cur, epoch, std::memory_order_relaxed))
        ;
}

Status
DiskCache::tryPut(const std::string &key,
                  const std::vector<double> &values)
{
    if (key.empty())
        fatal(Error{Errc::InvalidArgument, "DiskCache: empty key"});
    if (key.find('|') != std::string::npos ||
        key.find('\n') != std::string::npos) {
        fatal(Error{Errc::InvalidArgument,
                    "DiskCache: key contains a reserved character: " +
                        key});
    }
    if (key.size() > kMaxKeyBytes || values.size() > kMaxValueCount) {
        fatal(Error{Errc::InvalidArgument,
                    "DiskCache: entry exceeds format bounds: " + key});
    }

    {
        std::lock_guard<std::mutex> lk(mapMu_);
        entries_[key] = values;
    }

    if (readOnly_) {
        // Degraded mode: the in-memory view stays warm (the insert
        // above) but no append is attempted, so callers that require
        // durability can tell and refuse to release sweep leases.
        std::lock_guard<std::mutex> lk(persistMu_);
        ++persistFailures_;
        return Status(Error{Errc::CacheIo,
                            "DiskCache: " + path_ +
                                " is read-only; refusing append"});
    }

    // Single-writer group commit: if another thread already holds the
    // writer role it is guaranteed to loop until the pending queue —
    // which now contains this entry — is drained, so returning here
    // is safe: the entry is in memory and a batched append covering
    // it is claimed. Otherwise take the role and append until the
    // queue is empty; a burst of concurrent put()s collapses into a
    // handful of batched appends instead of one write per entry.
    std::unique_lock<std::mutex> lk(persistMu_);
    pending_.push_back(Entry{key, values, 0});
    if (writerActive_)
        return Status::success();
    writerActive_ = true;
    std::vector<Entry> batch;
    while (!pending_.empty()) {
        batch.clear();
        batch.swap(pending_);
        lk.unlock();
        const bool ok = appendBatch(batch); // File I/O unlocked.
        lk.lock();
        if (!ok)
            ++persistFailures_;
    }
    writerActive_ = false;
    persistCv_.notify_all();
    return Status::success();
}

void
DiskCache::sync()
{
    // The queue is only ever non-empty while a writer is bound to
    // drain it (put() takes the role itself otherwise), so idle role
    // + empty queue means everything enqueued before this call has
    // been appended or counted as a failure.
    std::unique_lock<std::mutex> lk(persistMu_);
    persistCv_.wait(
        lk, [this] { return !writerActive_ && pending_.empty(); });
}

std::uint64_t
DiskCache::bytesWritten() const
{
    std::lock_guard<std::mutex> lk(persistMu_);
    return loadReport_.bytesWritten;
}

std::uint64_t
DiskCache::appendBatches() const
{
    std::lock_guard<std::mutex> lk(persistMu_);
    return loadReport_.appendBatches;
}

std::uint64_t
DiskCache::entriesAppended() const
{
    std::lock_guard<std::mutex> lk(persistMu_);
    return loadReport_.entriesAppended;
}

std::size_t
DiskCache::persistFailures() const
{
    std::lock_guard<std::mutex> lk(persistMu_);
    return persistFailures_;
}

std::string
DiskCache::persistSummaryLine() const
{
    std::uint64_t bytes, batches, entries;
    {
        std::lock_guard<std::mutex> lk(persistMu_);
        bytes = loadReport_.bytesWritten;
        batches = loadReport_.appendBatches;
        entries = loadReport_.entriesAppended;
    }
    std::ostringstream out;
    out << "cache persist: " << bytes << " bytes in " << batches
        << " append batches covering " << entries << " entries";
    if (entries > 0) {
        out.precision(1);
        out << std::fixed << " ("
            << static_cast<double>(bytes) /
                   static_cast<double>(entries)
            << " bytes/entry)";
    }
    return out.str();
}

} // namespace ebm
