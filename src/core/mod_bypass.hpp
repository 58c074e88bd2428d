/**
 * @file
 * The Mod+Bypass comparison scheme: DynCTA-style TLP modulation
 * combined with cache bypassing for the application that does not
 * benefit from caching. The paper credits its improvement over
 * ++DynCTA to the bypass reducing shared-cache contention, while still
 * falling short of PBS because it ignores memory-bandwidth consumption
 * and the combined effect of co-runner TLP choices.
 *
 * Implementation: each window, an application whose observed L2 miss
 * rate is above a threshold (streaming / cache-insensitive) has its
 * requests bypass both cache levels' allocation paths, leaving the
 * capacity to the cache-sensitive co-runner.
 */
#pragma once

#include <vector>

#include "core/dyncta.hpp"
#include "core/tlp_policy.hpp"

namespace ebm {

/** TLP modulation plus per-application cache bypassing. */
class ModBypass : public TlpPolicy
{
  public:
    struct Params
    {
        DynCta::Params modulation;
        /**
         * An app is cache-insensitive — and worth bypassing — only
         * when *both* cache levels fail it: a cache-friendly app
         * under heavy co-runner pressure can show a high L2 miss
         * rate while still hitting in its private L1.
         */
        double bypassL1MrThreshold = 0.90;
        double bypassL2MrThreshold = 0.85;
        /** Windows of evidence before enabling the bypass. */
        std::uint32_t confirmWindows = 2;
        /**
         * While bypassing, miss rates read 1.0 by construction, so
         * the decision cannot be revisited from live samples alone.
         * Every probePeriod windows the bypass is lifted for one
         * window to re-measure the app's true cache affinity.
         */
        std::uint32_t probePeriod = 8;
    };

    ModBypass();
    explicit ModBypass(const Params &params);

    void onRunStart(Gpu &gpu) override;
    void onWindow(Gpu &gpu, Cycle now, const EbSample &sample) override;

    std::string name() const override { return "Mod+Bypass"; }

    std::uint64_t fingerprint() const override;

    /** Whether @p app currently bypasses the caches. */
    bool bypassing(AppId app) const { return bypass_[app]; }

  private:
    void applyBypass(Gpu &gpu, AppId app, bool enable);

    Params params_;
    DynCta modulator_;
    std::vector<bool> bypass_;
    std::vector<bool> probing_;
    std::vector<std::uint32_t> evidence_;
    std::uint32_t windowCount_ = 0;
};

} // namespace ebm
