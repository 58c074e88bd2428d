/**
 * @file
 * The runtime PBS mechanism (paper Figure 8): drives a PbsSearch over
 * live sampling windows, then holds the chosen TLP combination until a
 * kernel relaunch restarts the search. All runtime overheads — windows
 * spent measuring sub-optimal combinations, the monitor's relay
 * latency (one-window-delayed actions), and the re-searches after
 * relaunches — are inherent in this driving loop, matching the paper's
 * claim that "all the runtime overheads are modeled".
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/pbs_search.hpp"
#include "core/tlp_policy.hpp"

namespace ebm {

/** Online pattern-based-searching TLP manager. */
class PbsPolicy : public TlpPolicy
{
  public:
    struct Params
    {
        EbObjective objective = EbObjective::WS;
        ScalingMode scaling = ScalingMode::None;
        /** Per-app group-average alone EB (UserGroup scaling). */
        std::vector<double> userScale;
        /**
         * After convergence, re-verify the held combination every this
         * many windows by re-running the tune stage (0 = never). This
         * provides the runtime adaptivity visible in the paper's
         * Figure 11 timelines.
         */
        std::uint32_t reverifyWindows = 0;
        /**
         * Windows discarded after each TLP change before measuring
         * (in-flight state from the previous combination pollutes the
         * first window).
         */
        std::uint32_t settleWindows = 0;
        /**
         * Windows averaged per search sample. Ratio objectives (FI)
         * are noisy on single windows; averaging 2-3 windows costs
         * search time but prevents noise-driven convergence to poor
         * combinations.
         */
        std::uint32_t measureWindows = 1;
        /**
         * Watchdog: windows a single search may consume before it is
         * declared non-converging and abandoned (0 = unbounded). A
         * search can stall when the EB signal degrades (NaN relays,
         * an app draining mid-search); the watchdog guarantees the
         * machine ends up on a sane combination regardless.
         */
        std::uint32_t searchBudgetWindows = 0;
        /**
         * Combination applied when a search is abandoned. Callers
         * with profiling data pass ++bestTLP; when empty, the safe
         * pin-level (TLP=4-ish, Guideline 1) combination is used.
         */
        TlpCombo fallbackCombo;
    };

    explicit PbsPolicy(Params params) : params_(std::move(params)) {}

    void onRunStart(Gpu &gpu) override;
    void onWindow(Gpu &gpu, Cycle now, const EbSample &sample) override;
    void onKernelRelaunch(Gpu &gpu, Cycle now) override;

    /**
     * onRunStart only resets the policy's counters and arms the
     * search; the first probe combination is applied at the first
     * window close. The first window therefore runs at default knobs
     * — the same trajectory for every PBS variant — so the harness
     * can fork PBS runs from a shared warm checkpoint there.
     */
    bool startIsGpuNeutral() const override { return true; }

    std::string name() const override;

    std::uint64_t fingerprint() const override;

    /** Sampling windows consumed by searching (overhead accounting). */
    std::uint32_t samplesTaken() const override { return samples_; }

    /** Distinct TLP combinations the search visited. */
    std::uint32_t combosVisited() const { return combosVisited_; }

    /** Has the search settled on a combination? */
    bool converged() const { return search_ == nullptr && !pendingStart_; }

    /** Searches abandoned by the watchdog (fallback applied). */
    std::uint32_t searchesAbandoned() const { return searchesAbandoned_; }

    /** Degraded windows skipped while searching. */
    std::uint32_t degradedWindows() const { return degradedWindows_; }

    /** The combination currently applied. */
    const TlpCombo &currentCombo() const { return applied_; }

    /** (cycle, combo) trace of every TLP change (paper Figure 11). */
    const std::vector<std::pair<Cycle, TlpCombo>> &
    timeline() const override
    {
        return timeline_;
    }

  private:
    void startSearch(Gpu &gpu, Cycle now);
    void apply(Gpu &gpu, Cycle now, const TlpCombo &combo);
    void abandonSearch(Gpu &gpu, Cycle now);
    TlpCombo fallbackFor(const Gpu &gpu) const;

    /** Aggregate the accumulated windows into one averaged sample. */
    EbSample averagedSample() const;
    void beginSampleWindow();

    Params params_;
    std::unique_ptr<PbsSearch> search_;
    /** Armed by onRunStart; the first window close starts the search. */
    bool pendingStart_ = false;
    TlpCombo applied_;
    std::uint32_t samples_ = 0;
    std::uint32_t combosVisited_ = 0;
    std::uint32_t windowsSinceConverged_ = 0;
    std::uint32_t windowsThisSearch_ = 0;
    std::uint32_t searchesAbandoned_ = 0;
    std::uint32_t degradedWindows_ = 0;
    std::vector<std::pair<Cycle, TlpCombo>> timeline_;

    // Multi-window sampling state for the current probe combo.
    std::uint32_t settleLeft_ = 0;
    std::vector<EbSample> accum_;
};

} // namespace ebm
