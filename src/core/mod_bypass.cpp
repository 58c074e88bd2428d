#include "core/mod_bypass.hpp"

namespace ebm {

ModBypass::ModBypass() : ModBypass(Params{}) {}

ModBypass::ModBypass(const Params &params)
    : params_(params), modulator_(params.modulation)
{
}

std::uint64_t
ModBypass::fingerprint() const
{
    // The modulator is built from params_.modulation, so its
    // fingerprint covers those fields.
    return PolicyFingerprint(*this)
        .add(modulator_.fingerprint())
        .add(params_.bypassL1MrThreshold)
        .add(params_.bypassL2MrThreshold)
        .add(params_.confirmWindows)
        .add(params_.probePeriod)
        .value();
}

void
ModBypass::onRunStart(Gpu &gpu)
{
    modulator_.onRunStart(gpu);
    bypass_.assign(gpu.numApps(), false);
    probing_.assign(gpu.numApps(), false);
    evidence_.assign(gpu.numApps(), 0);
    windowCount_ = 0;
}

void
ModBypass::applyBypass(Gpu &gpu, AppId app, bool enable)
{
    gpu.setAppL1Bypass(app, enable);
    gpu.setAppL2Bypass(app, enable);
}

void
ModBypass::onWindow(Gpu &gpu, Cycle now, const EbSample &sample)
{
    modulator_.onWindow(gpu, now, sample);
    ++windowCount_;

    for (AppId app = 0; app < gpu.numApps(); ++app) {
        const bool insensitive =
            sample.apps[app].l1Mr > params_.bypassL1MrThreshold &&
            sample.apps[app].l2Mr > params_.bypassL2MrThreshold;

        if (probing_[app]) {
            // This window ran without the bypass: the sample shows
            // the app's true cache affinity. Re-decide directly.
            probing_[app] = false;
            bypass_[app] = insensitive;
            applyBypass(gpu, app, insensitive);
            evidence_[app] = 0;
            continue;
        }

        if (bypass_[app]) {
            // Samples taken under the bypass read as fully
            // insensitive by construction; lift the bypass
            // periodically to re-measure.
            if (windowCount_ % params_.probePeriod == 0) {
                probing_[app] = true;
                applyBypass(gpu, app, false);
            }
            continue;
        }

        if (!insensitive) {
            evidence_[app] = 0;
            continue;
        }
        // Require sustained evidence before enabling, so one noisy
        // window does not flap the bypass.
        if (++evidence_[app] >= params_.confirmWindows) {
            bypass_[app] = true;
            evidence_[app] = 0;
            applyBypass(gpu, app, true);
        }
    }
}

} // namespace ebm
