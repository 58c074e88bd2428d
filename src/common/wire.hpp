/**
 * @file
 * The shared EBS1 stream framing: a length-prefixed, checksum-framed
 * payload envelope over a byte stream, used by the advisor serving
 * daemon (harness/serve_protocol.hpp), the same-host lease fabric
 * (harness/coordinator.hpp, harness/lease_net.hpp), and the serving
 * benches — one framing implementation, so a fix or a format change
 * lands everywhere at once.
 *
 * Frame layout (host-endian integers, like the v3 store — peers share
 * one machine):
 *
 *     u32 frame magic "EBS1" | u32 payloadLen | payload bytes |
 *     u64 FNV-1a checksum over the payload
 *
 * Payloads are opaque bytes: the protocols above this put single-line
 * UTF-8 text in them (advisor verbs, lease verbs). A garbled or
 * truncated frame is detected from the envelope before any payload
 * byte is interpreted.
 *
 * The reader is incremental: bytes are fed in as recv() produces
 * them, and frames are extracted once complete — a frame split across
 * any number of reads reassembles byte-for-byte (locked by test).
 * Consumed bytes are reclaimed amortized-O(1): the reader keeps a
 * consumed-prefix cursor and memmoves the live tail only when the
 * dead prefix outweighs it, so byte-dribble delivery of N frames
 * costs O(total bytes), not O(N * buffered bytes) — this matters
 * when thousands of small frames arrive on one connection (locked by
 * a movedBytes() assertion in the tests).
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/net.hpp"

namespace ebm::wire {

constexpr std::uint32_t kFrameMagic = 0x31534245u; // "EBS1", LE bytes.
constexpr std::size_t kFrameHeadBytes = 8;         // magic + length.
constexpr std::size_t kFrameTailBytes = 8;         // checksum.
/** Sanity bound a valid payload never exceeds; larger is hostile or
 * corrupt, and the connection is dropped rather than buffered. */
constexpr std::uint32_t kMaxPayloadBytes = 1u << 16;

/** FNV-1a over the payload bytes (storefmt's key hash, same mixer). */
inline std::uint64_t
payloadChecksum(const std::string &payload)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : payload) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Serialize one frame around @p payload. */
inline std::string
encodeFrame(const std::string &payload)
{
    std::string buf;
    buf.reserve(kFrameHeadBytes + payload.size() + kFrameTailBytes);
    const std::uint32_t magic = kFrameMagic;
    const auto len = static_cast<std::uint32_t>(payload.size());
    buf.append(reinterpret_cast<const char *>(&magic), sizeof magic);
    buf.append(reinterpret_cast<const char *>(&len), sizeof len);
    buf.append(payload);
    const std::uint64_t sum = payloadChecksum(payload);
    buf.append(reinterpret_cast<const char *>(&sum), sizeof sum);
    return buf;
}

/**
 * Incremental frame extractor. feed() bytes as the transport produces
 * them; next() yields complete payloads. Distinguishes "need more
 * bytes" (a frame still in flight) from "bad bytes" (wrong magic,
 * impossible length, checksum mismatch) — only the former is
 * retryable, exactly like storefmt's torn-vs-corrupt split.
 */
class FrameReader
{
  public:
    enum class Status : std::uint8_t {
        NeedMore, ///< No complete frame buffered yet.
        Frame,    ///< @p payload holds the next frame's payload.
        Bad,      ///< The stream is garbled; drop the connection.
    };

    /** Append @p len transport bytes. */
    void
    feed(const char *data, std::size_t len)
    {
        buffer_.append(data, len);
    }

    /** Extract the next complete frame into @p payload. */
    Status
    next(std::string &payload, std::string *error = nullptr)
    {
        if (bad_) {
            if (error != nullptr)
                *error = badReason_;
            return Status::Bad;
        }
        const char *base = buffer_.data() + head_;
        const std::size_t avail = buffer_.size() - head_;
        if (avail < kFrameHeadBytes)
            return Status::NeedMore;
        std::uint32_t magic = 0, len = 0;
        std::memcpy(&magic, base, sizeof magic);
        std::memcpy(&len, base + 4, sizeof len);
        if (magic != kFrameMagic)
            return fail("bad frame magic", error);
        if (len > kMaxPayloadBytes)
            return fail("oversized frame (" + std::to_string(len) +
                            " bytes declared)",
                        error);
        const std::size_t need = kFrameHeadBytes + len + kFrameTailBytes;
        if (avail < need)
            return Status::NeedMore;
        payload.assign(base + kFrameHeadBytes, len);
        std::uint64_t stored = 0;
        std::memcpy(&stored, base + kFrameHeadBytes + len,
                    sizeof stored);
        if (payloadChecksum(payload) != stored)
            return fail("frame checksum mismatch", error);
        head_ += need;
        compactIfWorthIt();
        return Status::Frame;
    }

    /** Bytes buffered but not yet consumed (diagnostics/tests). */
    std::size_t buffered() const { return buffer_.size() - head_; }

    /** Total live bytes moved by prefix compactions. The amortized-
     * O(1) contract (tests assert it): never exceeds the total bytes
     * consumed as frames, however the feed is dribbled. */
    std::uint64_t movedBytes() const { return movedBytes_; }

  private:
    /** Reclaim the consumed prefix only when it outweighs the live
     * tail (and is big enough to bother): each compaction then moves
     * at most as many bytes as were consumed since the last one, so
     * the total moved is bounded by the total consumed — amortized
     * O(1) per byte, against the O(frames * buffered) of erasing the
     * front per frame. */
    void
    compactIfWorthIt()
    {
        if (head_ < kCompactThreshold ||
            head_ < buffer_.size() - head_)
            return;
        movedBytes_ += buffer_.size() - head_;
        buffer_.erase(0, head_);
        head_ = 0;
    }

    Status
    fail(std::string reason, std::string *error)
    {
        bad_ = true;
        badReason_ = std::move(reason);
        if (error != nullptr)
            *error = badReason_;
        return Status::Bad;
    }

    static constexpr std::size_t kCompactThreshold = 4096;

    std::string buffer_;
    std::size_t head_ = 0; ///< Consumed-prefix cursor into buffer_.
    std::uint64_t movedBytes_ = 0;
    bool bad_ = false;
    std::string badReason_;
};

/** Write one framed @p payload to @p fd. @return false on I/O error. */
inline bool
sendFrame(int fd, const std::string &payload)
{
    const std::string frame = encodeFrame(payload);
    return netWriteFull(fd, frame.data(), frame.size());
}

/**
 * Blocking-read one frame from @p fd into @p payload, reassembling
 * partial reads through @p reader (per-connection state, so pipelined
 * frames are never lost between calls). @return false on EOF, I/O
 * error, bad frame, or @p timeout_ms expiring (-1 = no deadline).
 */
inline bool
recvFrame(int fd, FrameReader &reader, std::string &payload,
          int timeout_ms = -1)
{
    for (;;) {
        switch (reader.next(payload)) {
          case FrameReader::Status::Frame:
            return true;
          case FrameReader::Status::Bad:
            return false;
          case FrameReader::Status::NeedMore:
            break;
        }
        if (timeout_ms >= 0 && !netWaitReadable(fd, timeout_ms))
            return false;
        char buf[4096];
        const ssize_t n = netRead(fd, buf, sizeof buf);
        if (n <= 0)
            return false;
        reader.feed(buf, static_cast<std::size_t>(n));
    }
}

/** Split a payload into whitespace-delimited tokens. */
inline std::vector<std::string>
splitTokens(const std::string &payload)
{
    std::vector<std::string> tokens;
    std::istringstream in(payload);
    std::string tok;
    while (in >> tok)
        tokens.push_back(tok);
    return tokens;
}

} // namespace ebm::wire
