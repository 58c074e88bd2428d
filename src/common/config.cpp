#include "common/config.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace ebm {

bool
parseUint(const char *text, std::uint64_t &out)
{
    if (text == nullptr || text[0] == '\0')
        return false;
    // strtoull accepts leading whitespace and signs ("-1" wraps to a
    // huge value); a knob is digits and nothing else.
    for (const char *p = text; *p != '\0'; ++p) {
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

const std::vector<std::uint32_t> &
GpuConfig::tlpLevels()
{
    static const std::vector<std::uint32_t> levels =
        {1, 2, 4, 6, 8, 12, 16, 24};
    return levels;
}

double
GpuConfig::peakBytesPerCoreCycle() const
{
    // Each channel can move one line-size burst every `burstCycles`
    // DRAM clocks when fully streaming.
    const double bytes_per_dram_cycle =
        static_cast<double>(l2Slice.lineBytes) / dram.burstCycles;
    return numPartitions * bytes_per_dram_cycle * dramClockRatio;
}

std::vector<Error>
GpuConfig::check() const
{
    std::vector<Error> errors;
    const auto bad = [&errors](const std::string &msg) {
        errors.push_back({Errc::InvalidConfig, msg});
    };

    if (numApps == 0)
        bad("GpuConfig: numApps must be >= 1 (set numApps before use)");
    if (numCores == 0 || numCores > 64) {
        // The GPU's awake-core and response-wheel masks are 64 bits.
        bad("GpuConfig: numCores (" + std::to_string(numCores) +
            ") must be in [1, 64]");
    }
    if (numApps != 0 && numCores % numApps != 0) {
        bad("GpuConfig: numCores (" + std::to_string(numCores) +
            ") must divide evenly among " + std::to_string(numApps) +
            " apps (trim numCores to a multiple of numApps)");
    }
    if (schedulersPerCore == 0)
        bad("GpuConfig: schedulersPerCore must be >= 1");
    else if (maxWarpsPerCore % schedulersPerCore != 0)
        bad("GpuConfig: warps must divide evenly among schedulers");
    else if (maxTlp() == 0 || maxTlp() > 64) {
        // A scheduler's ready and off-chip masks are 64 bits wide.
        bad("GpuConfig: maxWarpsPerCore / schedulersPerCore (" +
            std::to_string(maxTlp()) + ") must be in [1, 64]");
    }
    if (simtWidth == 0)
        bad("GpuConfig: simtWidth must be >= 1");
    if (numPartitions == 0)
        bad("GpuConfig: numPartitions must be >= 1");
    if (l1.lineBytes != l2Slice.lineBytes)
        bad("GpuConfig: L1 and L2 line sizes must match");
    if (interleaveBytes < l2Slice.lineBytes)
        bad("GpuConfig: interleave chunk smaller than a cache line");
    if (bankGroups == 0)
        bad("GpuConfig: bankGroups must be >= 1");
    else if (banksPerChannel % bankGroups != 0)
        bad("GpuConfig: banks must divide evenly among bank groups");
    if (l1.assoc == 0 || l1.lineBytes == 0 || l1.numSets() == 0 ||
        l2Slice.assoc == 0 || l2Slice.lineBytes == 0 ||
        l2Slice.numSets() == 0) {
        bad("GpuConfig: cache geometry yields zero sets "
            "(sizeBytes must be >= assoc * lineBytes)");
    }
    if (dramClockRatio <= 0.0 || dramClockRatio > 4.0)
        bad("GpuConfig: implausible dramClockRatio (expected (0, 4])");
    if (rowBytes < interleaveBytes)
        bad("GpuConfig: row buffer smaller than the interleave chunk");
    return errors;
}

namespace {

std::uint64_t
hashCacheGeometry(std::uint64_t h, const CacheGeometry &g)
{
    h = hashIds(h, g.sizeBytes, g.assoc, g.lineBytes);
    return hashIds(h, g.mshrEntries, g.mshrTargetsPerEntry);
}

} // namespace

std::uint64_t
configHash(const GpuConfig &cfg)
{
    // Every field, in declaration order. The size tripwires fire when
    // a field is added to either struct, pointing here.
    static_assert(sizeof(DramTiming) == 8 * sizeof(std::uint32_t),
                  "DramTiming changed: update configHash");
    static_assert(sizeof(CacheGeometry) == 5 * sizeof(std::uint32_t),
                  "CacheGeometry changed: update configHash");

    std::uint64_t h = hashIds(cfg.numCores, cfg.maxWarpsPerCore,
                              cfg.schedulersPerCore, cfg.simtWidth);
    h = hashIds(h, cfg.maxIssuePerScheduler, cfg.l1HitLatency,
                cfg.l2HitLatency);
    h = hashIds(h, cfg.icntRequestLatency, cfg.icntResponseLatency);
    h = hashCacheGeometry(h, cfg.l1);
    h = hashCacheGeometry(h, cfg.l2Slice);
    h = hashIds(h, cfg.numPartitions, cfg.banksPerChannel,
                cfg.bankGroups);
    h = hashIds(h, cfg.rowBytes, cfg.interleaveBytes,
                cfg.frfcfsQueueDepth);
    h = hashIds(h, cfg.frfcfsCapCycles, cfg.dram.tCL, cfg.dram.tRP);
    h = hashIds(h, cfg.dram.tRCD, cfg.dram.tRAS, cfg.dram.tCCDl);
    h = hashIds(h, cfg.dram.tCCDs, cfg.dram.tRRD,
                cfg.dram.burstCycles);
    h = hashIds(h, std::bit_cast<std::uint64_t>(cfg.dramClockRatio),
                cfg.icntInputQueueDepth, cfg.icntOutputQueueDepth);
    return hashIds(h, cfg.numApps);
}

void
GpuConfig::validate() const
{
    const std::vector<Error> errors = check();
    if (errors.empty())
        return;
    fatal(Error{Errc::InvalidConfig,
                "GpuConfig: " + std::to_string(errors.size()) +
                    " problem(s):\n  " + joinErrors(errors)});
}

} // namespace ebm
