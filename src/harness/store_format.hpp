/**
 * @file
 * The v3 binary result-store format, shared by DiskCache (load,
 * append, compact) and the store_fsck scrubber. One definition of the
 * header/frame layout and checksums guarantees the scrubber's
 * "canonical compacted re-emit" is byte-identical to
 * DiskCache::compact() for the same entry set — the invariant every
 * crash-consistency test checks with cmp, not a parser.
 *
 * Layout (documented in harness/disk_cache.hpp and DESIGN.md §8.3):
 *
 *   header (64 bytes):
 *     [ 0..7 ]  magic "EBMCBIN3"
 *     [ 8..11]  u32 format version (3)
 *     [12..15]  u32 app-catalog version at write time
 *     [16..55]  machine float-ABI fingerprint, NUL-padded
 *     [56..63]  u64 max fencing epoch under which frames were appended
 *               (0 in compacted/clean stores; see lease_provider.hpp)
 *   frame:
 *     u32 frame magic | u32 keyLen | u32 valueCount |
 *     keyLen key bytes | valueCount raw doubles | u64 checksum
 *
 * Integers and doubles are host-endian; the header fingerprint pins
 * byte order and double width, so a foreign file is rejected before
 * any frame is interpreted.
 */
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace ebm::storefmt {

constexpr char kMagicV3[8] = {'E', 'B', 'M', 'C', 'B', 'I', 'N', '3'};
constexpr std::uint32_t kFormatVersionV3 = 3;
constexpr std::uint64_t kHeaderSize = 64;
constexpr std::size_t kFingerprintBytes = 40;
/** Offset of the u64 max-fencing-epoch field in the header. */
constexpr std::uint64_t kFencingEpochOffset = 56;
constexpr std::uint32_t kFrameMagic = 0x33464245u; // "EBF3", LE bytes.
constexpr std::size_t kFrameHeadBytes = 12;
constexpr std::size_t kFrameTailBytes = 8;
// Sanity bounds a valid frame header can never exceed; anything
// larger is corruption, not data.
constexpr std::uint32_t kMaxKeyBytes = 1u << 16;
constexpr std::uint32_t kMaxValueCount = 1u << 20;

/** Checksum over an entry's key and value bit patterns. */
inline std::uint64_t
entryChecksum(const std::string &key, const std::vector<double> &values)
{
    // FNV-1a over the key bytes, then every double's exact bit
    // pattern folded in through the mixer. Identical to the v2 text
    // checksum, so migrated entries re-verify without recomputation.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    for (const double v : values)
        h = hashIds(h, std::bit_cast<std::uint64_t>(v));
    return h;
}

inline void
putU32(std::string &buf, std::uint32_t v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof v);
}

inline void
putU64(std::string &buf, std::uint64_t v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof v);
}

/**
 * Build a v3 header for this machine.
 *
 * @param catalog_version  app-catalog version to stamp
 * @param fingerprint      DiskCache::machineFingerprint()
 * @param fencing_epoch    max fencing epoch (0 = clean/compacted)
 */
inline std::string
buildHeader(std::uint32_t catalog_version, const std::string &fingerprint,
            std::uint64_t fencing_epoch = 0)
{
    std::string h(kHeaderSize, '\0');
    std::memcpy(h.data(), kMagicV3, sizeof kMagicV3);
    const std::uint32_t fmt = kFormatVersionV3;
    std::memcpy(h.data() + 8, &fmt, sizeof fmt);
    std::memcpy(h.data() + 12, &catalog_version, sizeof catalog_version);
    std::memcpy(h.data() + 16, fingerprint.data(),
                std::min(fingerprint.size(), kFingerprintBytes - 1));
    std::memcpy(h.data() + kFencingEpochOffset, &fencing_epoch,
                sizeof fencing_epoch);
    return h;
}

/** Append one CRC-framed record to @p buf. */
inline void
appendFrame(std::string &buf, const std::string &key,
            const std::vector<double> &values)
{
    putU32(buf, kFrameMagic);
    putU32(buf, static_cast<std::uint32_t>(key.size()));
    putU32(buf, static_cast<std::uint32_t>(values.size()));
    buf.append(key);
    buf.append(reinterpret_cast<const char *>(values.data()),
               values.size() * sizeof(double));
    putU64(buf, entryChecksum(key, values));
}

/** How a single frame parse ended. */
enum class FrameParse : std::uint8_t {
    Ok,   ///< A whole valid frame; @p out is filled.
    Torn, ///< The frame is cut off by the end of the region.
    Bad,  ///< Complete bytes that are not a valid frame (corruption).
};

/** One parsed frame. */
struct Frame
{
    std::string key;
    std::vector<double> values;
    std::size_t bytes = 0; ///< Whole frame size on disk.
};

/**
 * Try to parse one frame at @p data[@p off], bounded by @p end.
 * On Ok, @p out holds the record and its on-disk size.
 */
inline FrameParse
parseFrameAt(const char *data, std::size_t off, std::size_t end,
             Frame &out)
{
    if (end - off < kFrameHeadBytes)
        return FrameParse::Torn;
    std::uint32_t magic, key_len, value_count;
    std::memcpy(&magic, data + off, sizeof magic);
    std::memcpy(&key_len, data + off + 4, sizeof key_len);
    std::memcpy(&value_count, data + off + 8, sizeof value_count);
    if (magic != kFrameMagic || key_len == 0 || key_len > kMaxKeyBytes ||
        value_count > kMaxValueCount) {
        // A torn append only ever cuts a frame short; a complete
        // 12-byte head with impossible fields is corruption.
        return FrameParse::Bad;
    }
    const std::size_t need = kFrameHeadBytes + key_len +
                             value_count * sizeof(double) +
                             kFrameTailBytes;
    if (end - off < need)
        return FrameParse::Torn;
    out.key.assign(data + off + kFrameHeadBytes, key_len);
    out.values.resize(value_count);
    // A zero-value frame leaves values.data() null, and memcpy from or
    // to a null pointer is undefined even for zero bytes.
    if (value_count > 0) {
        std::memcpy(out.values.data(),
                    data + off + kFrameHeadBytes + key_len,
                    value_count * sizeof(double));
    }
    std::uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, data + off + need - kFrameTailBytes,
                sizeof stored_sum);
    if (entryChecksum(out.key, out.values) != stored_sum) {
        // A bad checksum on the final frame is a garbled tail write;
        // the caller decides torn-vs-corrupt from the position.
        return off + need == end ? FrameParse::Torn : FrameParse::Bad;
    }
    out.bytes = need;
    return FrameParse::Ok;
}

/**
 * The resync point after damage: the offset of the first valid frame
 * starting in [@p from, @p end), or @p end when none does.
 */
inline std::size_t
nextValidFrame(const char *data, std::size_t from, std::size_t end)
{
    for (std::size_t off = from; off + kFrameHeadBytes <= end; ++off) {
        std::uint32_t magic = 0;
        std::memcpy(&magic, data + off, sizeof magic);
        if (magic != kFrameMagic)
            continue;
        Frame probe;
        if (parseFrameAt(data, off, end, probe) == FrameParse::Ok)
            return off;
    }
    return end;
}

/** Parsed header fields (validation is the caller's policy). */
struct Header
{
    bool magicOk = false;
    std::uint32_t formatVersion = 0;
    std::uint32_t catalogVersion = 0;
    std::string fingerprint;
    std::uint64_t fencingEpoch = 0;
};

/** Parse the 64-byte header at @p data (requires kHeaderSize bytes). */
inline Header
parseHeader(const char *data)
{
    Header h;
    h.magicOk = std::memcmp(data, kMagicV3, sizeof kMagicV3) == 0;
    std::memcpy(&h.formatVersion, data + 8, sizeof h.formatVersion);
    std::memcpy(&h.catalogVersion, data + 12, sizeof h.catalogVersion);
    char fp[kFingerprintBytes] = {};
    std::memcpy(fp, data + 16, kFingerprintBytes);
    fp[kFingerprintBytes - 1] = '\0';
    h.fingerprint = fp;
    std::memcpy(&h.fencingEpoch, data + kFencingEpochOffset,
                sizeof h.fencingEpoch);
    return h;
}

} // namespace ebm::storefmt

namespace ebm {

/**
 * The shape a record's values must have for a reader to use them:
 * `head` values, then, when `stride` is nonzero, a counted tail of
 * `stride`-value entries whose count is the last head value. A sweep
 * row or alone level is a fixed width (no tail); an online-policy run
 * ends in its counted TLP timeline. Any other shape is a miss.
 */
struct RecordShape
{
    std::size_t head = 0;
    std::size_t stride = 0;

    /** A fixed-width record (implicit: a width is a shape). */
    RecordShape(std::size_t width = 0) : head(width) {}
    RecordShape(std::size_t head_values, std::size_t tail_stride)
        : head(head_values), stride(tail_stride)
    {
    }

    /** Do @p values have this shape? */
    bool
    fits(const std::vector<double> &values) const
    {
        if (stride == 0)
            return values.size() == head;
        if (head == 0 || values.size() < head)
            return false;
        const double count = values[head - 1];
        const std::size_t tail = values.size() - head;
        // A NaN, negative or fractional count fails the first test.
        return count >= 0.0 && count == std::floor(count) &&
               tail % stride == 0 &&
               count == static_cast<double>(tail / stride);
    }

    /** fits(@p values), every one of them finite: a usable record. */
    bool
    accepts(const std::vector<double> &values) const
    {
        if (!fits(values))
            return false;
        for (const double v : values) {
            if (!std::isfinite(v))
                return false;
        }
        return true;
    }

    /** "9", or "14 + 3 per entry", for diagnostics. */
    std::string
    describe() const
    {
        std::string out = std::to_string(head);
        if (stride != 0)
            out += " + " + std::to_string(stride) + " per entry";
        return out;
    }
};

} // namespace ebm
