/**
 * @file
 * The runtime TLP-management interface.
 *
 * A policy interacts with the GPU exactly the way the paper's hardware
 * does: at every sampling-window boundary it may read the monitor's
 * sample and re-program the warp-limiting schedulers. The harness
 * drives the windows; policies never see anything a real PBS block
 * could not.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/eb_sample.hpp"
#include "sim/gpu.hpp"

namespace ebm {

/**
 * Builder for TlpPolicy::fingerprint(): the policy's dynamic type
 * name, then every parameter in declaration order. The dynamic type
 * gives a subclass that inherits fingerprint() keys of its own.
 * Doubles hash by bit pattern and vectors by length then elements, so
 * no two parameter sets alias by concatenation.
 */
class PolicyFingerprint
{
  public:
    template <typename Policy>
    explicit PolicyFingerprint(const Policy &policy)
    {
        addText(typeid(policy).name());
    }

    PolicyFingerprint &
    addText(std::string_view text)
    {
        for (const char c : text)
            add(static_cast<unsigned char>(c));
        return add(text.size());
    }

    template <typename T>
    PolicyFingerprint &
    add(const T &value)
    {
        if constexpr (std::is_floating_point_v<T>)
            h_ = hashIds(h_, std::bit_cast<std::uint64_t>(
                                 static_cast<double>(value)));
        else
            h_ = hashIds(h_, static_cast<std::uint64_t>(value));
        return *this;
    }

    template <typename T>
    PolicyFingerprint &
    add(const std::vector<T> &values)
    {
        add(values.size());
        for (const T &v : values)
            add(v);
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x7f4a'7c15'0b1e'5eedull;
};

/** Base class of every runtime TLP-management scheme. */
class TlpPolicy
{
  public:
    virtual ~TlpPolicy() = default;

    /** Called once before the first cycle. */
    virtual void onRunStart(Gpu &gpu) = 0;

    /**
     * Called at the close of every sampling window with the monitor's
     * sample for that window (already subject to the monitor's relay
     * latency model — see the runner).
     */
    virtual void onWindow(Gpu &gpu, Cycle now, const EbSample &sample)
    {
        (void)gpu;
        (void)now;
        (void)sample;
    }

    /**
     * Kernel-relaunch notification (the paper restarts PBS when any
     * kernel is re-launched).
     */
    virtual void onKernelRelaunch(Gpu &gpu, Cycle now)
    {
        (void)gpu;
        (void)now;
    }

    /** Human-readable scheme name for tables. */
    virtual std::string name() const = 0;

    /** Samples consumed by searching (0 for static schemes). */
    virtual std::uint32_t samplesTaken() const { return 0; }

    /**
     * Hash of the policy's type and every parameter that can change
     * what it does: part of an online run's store key, so two
     * policies that could act differently never share a record.
     * Build it with PolicyFingerprint.
     */
    virtual std::uint64_t fingerprint() const = 0;

    /**
     * (cycle, combo) trace of every TLP change the policy made during
     * the last run (paper Figure 11); empty for policies that keep
     * none.
     */
    virtual const std::vector<std::pair<Cycle, TlpCombo>> &
    timeline() const
    {
        static const std::vector<std::pair<Cycle, TlpCombo>> kNone;
        return kNone;
    }

    /**
     * A policy returning true has its onRunStart deferred to the start
     * of the measurement span (the first window close at or after
     * warmup) instead of cycle 0. The warmup prefix then runs at
     * construction-default knobs for every such policy — which is what
     * lets the harness simulate that shared prefix once, snapshot it,
     * and fork per combination (see WarmStateCache). Only meaningful
     * for policies whose onWindow/onKernelRelaunch are no-ops while
     * not started (StaticTlpPolicy qualifies trivially).
     */
    virtual bool defersToMeasureStart() const { return false; }

    /**
     * True when onRunStart mutates only the policy's own state, never
     * the machine. The harness may then fork such a run from a warm
     * checkpoint at the first window close: the first window runs at
     * construction-default knobs either way.
     */
    virtual bool startIsGpuNeutral() const { return false; }
};

/** Fixed TLP combination applied at run start (bestTLP, maxTLP, opt*). */
class StaticTlpPolicy : public TlpPolicy
{
  public:
    StaticTlpPolicy(std::string name, TlpCombo combo)
        : name_(std::move(name)), combo_(std::move(combo))
    {
    }

    void
    onRunStart(Gpu &gpu) override
    {
        for (AppId app = 0; app < gpu.numApps(); ++app)
            gpu.setAppTlp(app, combo_[app]);
    }

    /**
     * The combo is applied at measure start, not at cycle 0: every
     * static combination then shares one default-knob warmup prefix,
     * which the harness simulates once and forks (the warmup span is
     * excluded from measurement for every scheme, so scores compare
     * exactly as before; cached results are invalidated via the
     * Runner fingerprint bump).
     */
    bool defersToMeasureStart() const override { return true; }

    std::string name() const override { return name_; }

    std::uint64_t
    fingerprint() const override
    {
        return PolicyFingerprint(*this)
            .addText(name_)
            .add(combo_)
            .value();
    }

    const TlpCombo &combo() const { return combo_; }

  private:
    std::string name_;
    TlpCombo combo_;
};

} // namespace ebm
