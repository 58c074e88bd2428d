#include "sim/warp_scheduler.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace ebm {

WarpScheduler::WarpScheduler(std::vector<WarpId> warp_ids,
                             std::uint32_t tlp_limit)
    : warpIds_(std::move(warp_ids))
{
    if (warpIds_.empty())
        fatal("WarpScheduler: no warp contexts");
    if (warpIds_.size() > 64)
        fatal("WarpScheduler: at most 64 warp contexts per scheduler "
              "(ready-mask width)");
    tlpLimit_ = 1;
    setTlpLimit(tlp_limit);
}

void
WarpScheduler::setTlpLimit(std::uint32_t limit)
{
    const auto max_limit = static_cast<std::uint32_t>(warpIds_.size());
    tlpLimit_ = std::clamp<std::uint32_t>(limit, 1, max_limit);
}

WarpId
WarpScheduler::pickReady() const
{
    const std::uint64_t ready = readyMask_ & windowMask();
    if (ready == 0)
        return kNoWarp;
    // Greedy: stick with the last-issued warp while it is both ready
    // and still within the SWL window.
    if (lastPos_ < tlpLimit_ && (ready & (1ull << lastPos_)) != 0)
        return lastIssued_;
    // Then oldest: age order equals position in warpIds_.
    return warpIds_[std::countr_zero(ready)];
}

} // namespace ebm
