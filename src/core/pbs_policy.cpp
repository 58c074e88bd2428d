#include "core/pbs_policy.hpp"

#include "common/log.hpp"

namespace ebm {

std::string
PbsPolicy::name() const
{
    switch (params_.objective) {
      case EbObjective::WS:
        return "PBS-WS";
      case EbObjective::FI:
        return "PBS-FI";
      case EbObjective::HS:
        return "PBS-HS";
    }
    return "PBS-?";
}

std::uint64_t
PbsPolicy::fingerprint() const
{
    return PolicyFingerprint(*this)
        .add(params_.objective)
        .add(params_.scaling)
        .add(params_.userScale)
        .add(params_.reverifyWindows)
        .add(params_.settleWindows)
        .add(params_.measureWindows)
        .add(params_.searchBudgetWindows)
        .add(params_.fallbackCombo)
        .value();
}

TlpCombo
PbsPolicy::fallbackFor(const Gpu &gpu) const
{
    if (params_.fallbackCombo.size() == gpu.numApps())
        return params_.fallbackCombo;
    // No caller-supplied fallback: the Guideline-1 pin level keeps the
    // machine utilized without letting any app overwhelm it.
    const auto &levels = GpuConfig::tlpLevels();
    std::uint32_t pin = levels.front();
    for (std::uint32_t level : levels) {
        if (level <= 4)
            pin = level;
    }
    return TlpCombo(gpu.numApps(), pin);
}

void
PbsPolicy::abandonSearch(Gpu &gpu, Cycle now)
{
    ++searchesAbandoned_;
    warn("PbsPolicy: search did not converge within budget; falling "
         "back to the safe combination");
    apply(gpu, now, fallbackFor(gpu));
    search_.reset();
    windowsSinceConverged_ = 0;
}

void
PbsPolicy::startSearch(Gpu &gpu, Cycle now)
{
    pendingStart_ = false;
    search_ = std::make_unique<PbsSearch>(
        params_.objective, gpu.numApps(), GpuConfig::tlpLevels(),
        params_.scaling, params_.userScale);
    windowsSinceConverged_ = 0;
    windowsThisSearch_ = 0;
    if (const auto combo = search_->nextCombo()) {
        apply(gpu, now, *combo);
        ++combosVisited_;
    }
    beginSampleWindow();
}

void
PbsPolicy::beginSampleWindow()
{
    settleLeft_ = params_.settleWindows;
    accum_.clear();
}

void
PbsPolicy::apply(Gpu &gpu, Cycle now, const TlpCombo &combo)
{
    if (combo == applied_)
        return;
    applied_ = combo;
    for (AppId app = 0; app < gpu.numApps(); ++app)
        gpu.setAppTlp(app, combo[app]);
    timeline_.emplace_back(now, combo);
}

void
PbsPolicy::onRunStart(Gpu &gpu)
{
    // Gpu-neutral by contract (startIsGpuNeutral): the machine is not
    // touched here. The search — and its first probe combination — is
    // started at the first window close, so the first window runs at
    // default knobs and its sample is discarded (it measured no probe).
    (void)gpu;
    applied_.clear();
    timeline_.clear();
    samples_ = 0;
    combosVisited_ = 0;
    searchesAbandoned_ = 0;
    degradedWindows_ = 0;
    search_.reset();
    windowsSinceConverged_ = 0;
    pendingStart_ = true;
}

EbSample
PbsPolicy::averagedSample() const
{
    if (accum_.empty())
        panic("PbsPolicy: averaging with no windows accumulated");
    EbSample avg = accum_.front();
    const double n = static_cast<double>(accum_.size());
    for (std::size_t w = 1; w < accum_.size(); ++w) {
        avg.totalBw += accum_[w].totalBw;
        for (std::size_t a = 0; a < avg.apps.size(); ++a) {
            avg.apps[a].bw += accum_[w].apps[a].bw;
            avg.apps[a].l1Mr += accum_[w].apps[a].l1Mr;
            avg.apps[a].l2Mr += accum_[w].apps[a].l2Mr;
        }
    }
    avg.totalBw /= n;
    for (AppRunStats &a : avg.apps) {
        a.bw /= n;
        a.l1Mr /= n;
        a.l2Mr /= n;
    }
    return avg;
}

void
PbsPolicy::onWindow(Gpu &gpu, Cycle now, const EbSample &sample)
{
    if (pendingStart_) {
        // The window that just closed ran at default knobs; it carries
        // no probe signal, but it was still spent not-converged.
        pendingStart_ = false;
        ++samples_;
        startSearch(gpu, now);
        return;
    }

    if (search_ == nullptr) {
        // Converged and holding. Optionally restart the search
        // periodically to track phase changes.
        if (params_.reverifyWindows != 0 &&
            ++windowsSinceConverged_ >= params_.reverifyWindows) {
            startSearch(gpu, now);
        }
        return;
    }

    ++samples_; // Every window spent searching is overhead.

    // Watchdog: a search that cannot converge (degraded EB signal, an
    // app draining away mid-search) must not hold the machine on probe
    // combinations forever.
    if (params_.searchBudgetWindows != 0 &&
        ++windowsThisSearch_ > params_.searchBudgetWindows) {
        abandonSearch(gpu, now);
        return;
    }

    // Degraded windows carry no usable signal: freeze the current
    // decision and wait for the monitor to recover (the budget above
    // bounds how long).
    if (sample.degraded) {
        ++degradedWindows_;
        return;
    }

    // Multi-window sampling: discard settle windows after a TLP
    // change, then average the measurement windows.
    if (settleLeft_ > 0) {
        --settleLeft_;
        return;
    }
    accum_.push_back(sample);
    if (accum_.size() < params_.measureWindows)
        return;

    search_->observe(averagedSample());

    if (search_->done()) {
        if (search_->failed()) {
            abandonSearch(gpu, now);
            return;
        }
        apply(gpu, now, search_->best());
        search_.reset();
        windowsSinceConverged_ = 0;
        return;
    }
    if (const auto combo = search_->nextCombo()) {
        apply(gpu, now, *combo);
        ++combosVisited_;
    }
    beginSampleWindow();
}

void
PbsPolicy::onKernelRelaunch(Gpu &gpu, Cycle now)
{
    // The paper restarts PBS whenever any kernel is re-launched.
    startSearch(gpu, now);
}

} // namespace ebm
