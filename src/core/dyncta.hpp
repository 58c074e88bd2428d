/**
 * @file
 * DynCTA-style dynamic TLP modulation (Kayiran et al.), the paper's
 * ++DynCTA baseline.
 *
 * DynCTA is a purely *local* heuristic: each application watches its
 * own cores' idle and memory-waiting cycles and nudges its TLP up when
 * cores starve for ready warps, down when warps pile up on memory. It
 * never looks at the co-runner's resource consumption — which is
 * exactly why the paper finds it inferior to PBS in multi-application
 * settings.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/tlp_policy.hpp"

namespace ebm {

/** Per-application DynCTA modulation. */
class DynCta : public TlpPolicy
{
  public:
    /**
     * Tunable thresholds (fractions of the sampling window).
     *
     * The scheme equilibrates on the *congestion* signal: the
     * fraction of cycles a ready warp was blocked by downstream
     * back-pressure. Lowering TLP genuinely reduces that fraction
     * (fewer requests in flight), so — unlike raw memory-wait time,
     * which stays high for any memory-bound kernel at any TLP — it
     * yields a stable operating point instead of a throttle-to-one
     * death spiral.
     */
    struct Params
    {
        double stallHigh = 0.25;  ///< Above: decrease TLP.
        double stallLow = 0.08;   ///< Below: room to increase.
        double memWaitHigh = 0.95;///< Pure latency wall: hold.
        std::uint32_t initialTlp = 8;
    };

    DynCta();
    explicit DynCta(const Params &params);

    void onRunStart(Gpu &gpu) override;
    void onWindow(Gpu &gpu, Cycle now, const EbSample &sample) override;

    std::string name() const override { return "++DynCTA"; }

    std::uint64_t fingerprint() const override;

  private:
    /** Move one step along the level ladder. @return new level. */
    static std::uint32_t stepLevel(std::uint32_t level, int direction);

    Params params_;
    std::vector<std::uint32_t> tlp_;
    Cycle lastWindowEnd_ = 0;
};

} // namespace ebm
