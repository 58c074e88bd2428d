/**
 * @file
 * A CCWS-style cache-conscious TLP limiter, the second single-
 * application runtime mechanism the paper cites for establishing
 * bestTLP at runtime (alongside DynCTA).
 *
 * Cache-conscious wavefront scheduling observes *lost locality*:
 * L1 misses to lines that were recently evicted (detected with a
 * victim tag array). A high lost-locality score means the active
 * warps' working sets exceed the L1 — throttling TLP would turn
 * those misses back into hits. A low score means the cache is not
 * the constraint and more parallelism can be exposed.
 *
 * Like DynCTA, the signal is purely local — the scheme never sees the
 * co-runner's resource consumption, which is why it cannot find the
 * cooperative TLP combinations PBS finds.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/tlp_policy.hpp"

namespace ebm {

/** Per-application CCWS-style lost-locality TLP modulation. */
class Ccws : public TlpPolicy
{
  public:
    /** Thresholds on lost-locality per kilo-instruction (LLKI). */
    struct Params
    {
        double llkiHigh = 6.0; ///< Above: throttle TLP down.
        double llkiLow = 1.0;  ///< Below: restore parallelism.
        std::uint32_t initialTlp = 8;
    };

    Ccws();
    explicit Ccws(const Params &params);

    void onRunStart(Gpu &gpu) override;
    void onWindow(Gpu &gpu, Cycle now, const EbSample &sample) override;

    std::string name() const override { return "++CCWS"; }

    std::uint64_t fingerprint() const override;

    /** Last windowed lost-locality-per-kilo-instruction per app. */
    double lastLlki(AppId app) const { return llki_[app]; }

  private:
    Params params_;
    std::vector<std::uint32_t> tlp_;
    std::vector<double> llki_;
};

} // namespace ebm
