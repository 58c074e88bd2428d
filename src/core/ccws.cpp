#include "core/ccws.hpp"

namespace ebm {

namespace {

/** Step one level along the configured ladder. */
std::uint32_t
stepLevel(std::uint32_t level, int direction)
{
    const auto &levels = GpuConfig::tlpLevels();
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

} // namespace

Ccws::Ccws() : Ccws(Params{}) {}

Ccws::Ccws(const Params &params) : params_(params) {}

std::uint64_t
Ccws::fingerprint() const
{
    return PolicyFingerprint(*this)
        .add(params_.llkiHigh)
        .add(params_.llkiLow)
        .add(params_.initialTlp)
        .value();
}

void
Ccws::onRunStart(Gpu &gpu)
{
    tlp_.assign(gpu.numApps(), params_.initialTlp);
    llki_.assign(gpu.numApps(), 0.0);
    for (AppId app = 0; app < gpu.numApps(); ++app)
        gpu.setAppTlp(app, tlp_[app]);
}

void
Ccws::onWindow(Gpu &gpu, Cycle, const EbSample &)
{
    for (AppId app = 0; app < gpu.numApps(); ++app) {
        std::uint64_t lost = 0, instrs = 0;
        for (CoreId id : gpu.coresOf(app)) {
            const SimtCore &core = gpu.core(id);
            lost += core.windowLostLocality();
            instrs += core.windowInstrsRetired();
        }
        if (instrs == 0)
            continue;
        llki_[app] = 1000.0 * static_cast<double>(lost) /
                     static_cast<double>(instrs);

        int direction = 0;
        if (llki_[app] > params_.llkiHigh)
            direction = -1; // Working sets thrash the L1: throttle.
        else if (llki_[app] < params_.llkiLow)
            direction = +1; // Cache is not the constraint.

        if (direction != 0) {
            tlp_[app] = stepLevel(tlp_[app], direction);
            gpu.setAppTlp(app, tlp_[app]);
        }
    }
}

} // namespace ebm
