#include "core/dyncta.hpp"

#include <algorithm>

namespace ebm {

DynCta::DynCta() : DynCta(Params{}) {}

DynCta::DynCta(const Params &params) : params_(params) {}

std::uint64_t
DynCta::fingerprint() const
{
    return PolicyFingerprint(*this)
        .add(params_.stallHigh)
        .add(params_.stallLow)
        .add(params_.memWaitHigh)
        .add(params_.initialTlp)
        .value();
}

void
DynCta::onRunStart(Gpu &gpu)
{
    tlp_.assign(gpu.numApps(), params_.initialTlp);
    for (AppId app = 0; app < gpu.numApps(); ++app)
        gpu.setAppTlp(app, tlp_[app]);
    lastWindowEnd_ = 0;
}

std::uint32_t
DynCta::stepLevel(std::uint32_t level, int direction)
{
    const auto &levels = GpuConfig::tlpLevels();
    // Find the nearest configured level at or below, then step.
    std::size_t idx = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (levels[i] <= level)
            idx = i;
    }
    if (direction > 0 && idx + 1 < levels.size())
        ++idx;
    else if (direction < 0 && idx > 0)
        --idx;
    return levels[idx];
}

void
DynCta::onWindow(Gpu &gpu, Cycle now, const EbSample &)
{
    const Cycle window_len =
        now > lastWindowEnd_ ? now - lastWindowEnd_ : 1;
    lastWindowEnd_ = now;

    for (AppId app = 0; app < gpu.numApps(); ++app) {
        // Aggregate this app's cores over the window.
        std::uint64_t mem_wait = 0, stall = 0;
        for (CoreId id : gpu.coresOf(app)) {
            const SimtCore &core = gpu.core(id);
            mem_wait += core.windowMemWaitCycles();
            stall += core.windowStallCycles();
        }
        const auto n_cores =
            static_cast<double>(gpu.coresOf(app).size());
        const double denom =
            static_cast<double>(window_len) * std::max(n_cores, 1.0);
        const double stall_frac = static_cast<double>(stall) / denom;
        const double mem_frac = static_cast<double>(mem_wait) / denom;

        int direction = 0;
        if (stall_frac > params_.stallHigh) {
            direction = -1; // Congested: back off.
        } else if (stall_frac < params_.stallLow &&
                   mem_frac < params_.memWaitHigh) {
            direction = +1; // Headroom: expose more parallelism.
        }

        if (direction != 0) {
            tlp_[app] = stepLevel(tlp_[app], direction);
            gpu.setAppTlp(app, tlp_[app]);
        }
    }
}

} // namespace ebm
