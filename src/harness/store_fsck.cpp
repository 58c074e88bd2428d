#include "harness/store_fsck.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "harness/disk_cache.hpp"
#include "harness/store_format.hpp"
#include "workload/app_catalog.hpp"

namespace ebm {

namespace {

bool
readWholeFile(const std::string &path, std::vector<char> &out,
              std::string &error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open " + path;
        return false;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        error = "cannot stat " + path;
        ::close(fd);
        return false;
    }
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n =
            ::read(fd, out.data() + off, out.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            error = "short read from " + path;
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
}

bool
writeWholeFile(const std::string &path, const std::string &bytes,
               std::string &error)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        error = "cannot create " + path;
        return false;
    }
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            error = "write to " + path + " failed";
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) {
        error = "fsync of " + path + " failed";
        return false;
    }
    return true;
}

} // namespace

std::string
FsckReport::summaryLine() const
{
    std::ostringstream out;
    out << "fsck: ";
    switch (verdict) {
      case Verdict::Clean:
        out << "clean";
        break;
      case Verdict::Dirty:
        out << (repaired ? "repaired" : "dirty");
        break;
      case Verdict::Unrecoverable:
        out << "unrecoverable";
        break;
    }
    out << " (" << framesOk << " frames, " << uniqueKeys
        << " unique keys, " << duplicateKeys << " superseded, "
        << badRegions << " bad regions / " << bytesQuarantined
        << " bytes quarantined" << (tornTail ? ", torn tail" : "");
    out << ")";
    if (!error.empty())
        out << " error: " << error;
    return out.str();
}

FsckReport
fsckStore(const std::string &path, const FsckOptions &options)
{
    namespace fmt = storefmt;
    FsckReport report;

    std::vector<char> data;
    if (!readWholeFile(path, data, report.error))
        return report;

    if (data.size() < fmt::kHeaderSize) {
        report.error = "file smaller than a v3 header (" +
                       std::to_string(data.size()) + " bytes)";
        return report;
    }
    const fmt::Header header = fmt::parseHeader(data.data());
    report.catalogVersion = header.catalogVersion;
    report.fencingEpoch = header.fencingEpoch;
    if (!header.magicOk ||
        header.formatVersion != fmt::kFormatVersionV3 ||
        header.fingerprint != DiskCache::machineFingerprint()) {
        // Text stores, foreign machines, future formats: scrubbing
        // frame-by-frame would be guesswork; refuse loudly.
        report.error = "header is not a v3 store for this machine";
        return report;
    }
    report.headerOk = true;

    // Frame walk with resync: a bad frame starts a corrupt region
    // that ends at the next offset parsing as a valid frame. A frame
    // cut off by the end is a torn tail only when no valid frame
    // follows it. The skipped bytes are preserved (quarantine), not
    // destroyed.
    std::vector<fmt::Frame> frames;
    std::string quarantined;
    std::size_t off = fmt::kHeaderSize;
    const std::size_t end = data.size();
    while (off < end) {
        fmt::Frame frame;
        const fmt::FrameParse parse =
            fmt::parseFrameAt(data.data(), off, end, frame);
        if (parse == fmt::FrameParse::Ok) {
            off += frame.bytes;
            frames.push_back(std::move(frame));
            continue;
        }
        const std::size_t next =
            fmt::nextValidFrame(data.data(), off + 1, end);
        if (parse == fmt::FrameParse::Torn && next == end)
            report.tornTail = true;
        else
            ++report.badRegions;
        quarantined.append(data.data() + off, next - off);
        off = next;
    }
    report.framesOk = frames.size();
    report.bytesQuarantined = quarantined.size();

    // Last-wins fold, exactly like DiskCache's load.
    std::map<std::string, const std::vector<double> *> entries;
    for (const fmt::Frame &frame : frames) {
        auto [it, inserted] =
            entries.emplace(frame.key, &frame.values);
        if (!inserted) {
            ++report.duplicateKeys;
            it->second = &frame.values;
        }
    }
    report.uniqueKeys = entries.size();

    const bool dirty = report.badRegions > 0 || report.tornTail;
    report.verdict =
        dirty ? FsckReport::Verdict::Dirty : FsckReport::Verdict::Clean;
    if (!dirty || !options.repair)
        return report;

    // Preserve the evidence before touching the store.
    if (!quarantined.empty()) {
        report.quarantinePath = options.quarantinePath.empty()
                                    ? path + ".fsck-quarantine"
                                    : options.quarantinePath;
        if (!writeWholeFile(report.quarantinePath, quarantined,
                            report.error))
            return report;
    }

    // Canonical re-emit through the shared format code: sorted keys
    // (std::map iteration), the input's catalog version, epoch zeroed
    // — byte-identical to DiskCache::compact() of the same entry set.
    std::string buf = fmt::buildHeader(header.catalogVersion,
                                       DiskCache::machineFingerprint());
    for (const auto &kv : entries)
        fmt::appendFrame(buf, kv.first, *kv.second);

    const std::string tmp = path + ".fsck-tmp";
    if (!writeWholeFile(tmp, buf, report.error))
        return report;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        report.error = "rename " + tmp + " -> " + path + " failed";
        std::remove(tmp.c_str());
        return report;
    }
    report.repaired = true;
    return report;
}

bool
writeFsckFixture(const std::string &path)
{
    namespace fmt = storefmt;
    // Deterministic entries: enough to straddle the corrupt region
    // with valid frames on both sides.
    const auto key = [](int i) {
        return "fixture/key" + std::to_string(i);
    };
    const auto values = [](int i) {
        return std::vector<double>{1.0 + i, 2.0 * i, 3.5, -4.25 * i};
    };

    std::string buf = fmt::buildHeader(
        static_cast<std::uint32_t>(kAppCatalogVersion),
        DiskCache::machineFingerprint());
    for (int i = 0; i < 4; ++i)
        fmt::appendFrame(buf, key(i), values(i));

    // Corrupt region: a frame whose checksum byte is flipped (Bad,
    // since frames follow it), then garbage that fakes a frame magic
    // with impossible fields.
    const std::size_t bad_at = buf.size();
    fmt::appendFrame(buf, key(100), values(100));
    buf[buf.size() - 3] ^= 0x5a;
    fmt::putU32(buf, fmt::kFrameMagic);
    fmt::putU32(buf, 0);          // keyLen 0: impossible.
    fmt::putU32(buf, 0xffffffffu);
    (void)bad_at;

    for (int i = 4; i < 8; ++i)
        fmt::appendFrame(buf, key(i), values(i));

    // Torn tail: a valid frame cut in half.
    std::string tail;
    fmt::appendFrame(tail, key(200), values(200));
    buf.append(tail.data(), tail.size() / 2);

    std::string error;
    return writeWholeFile(path, buf, error);
}

} // namespace ebm
