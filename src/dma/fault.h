/**
 * @file
 * Driver-visible fault recovery. When a device access comes back
 * faulted (the IOMMU refused the translation and recorded a fault),
 * the driver's fault interrupt handler reads the fault state and
 * applies a configurable FaultPolicy. All of this work is charged to
 * Cat::kFaultHandling via the CostModel fault constants.
 *
 * The same engine hosts deterministic fault *injection*: when armed
 * with a nonzero rate, each top-level device access makes exactly one
 * Bernoulli draw from a seeded Rng, so a test oracle that mirrors the
 * stream can predict which accesses fault. With the rate at zero the
 * engine is inert and no RNG draw happens, keeping fault-free runs
 * bit-for-bit identical to builds without the fault layer.
 */
#ifndef RIO_DMA_FAULT_H
#define RIO_DMA_FAULT_H

#include <functional>

#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"

namespace rio::des {
class Core;
}

namespace rio::dma {

/** What the driver does about a faulted device access. */
enum class FaultPolicy : u8 {
    /**
     * Report and give up: the access fails up to the device model,
     * which completes the descriptor as errored (packet lost). The
     * damaged translation is still repaired so subsequent, unrelated
     * DMAs do not keep faulting on the same entry.
     */
    kAbort = 0,
    /**
     * Re-install the translation and replay the access, up to
     * max_retries times (the recoverable-fault path a kernel would
     * take for a transiently bad mapping).
     */
    kRetryRemap = 1,
    /**
     * Repair, but drop this access and charge a backoff penalty
     * (driver parks the request and relies on retransmission).
     */
    kDropBackoff = 2,
};

const char *faultPolicyName(FaultPolicy policy);

/** Deterministic fault-injection knobs. */
struct FaultInjectConfig
{
    double rate = 0.0;       //!< per-access fault probability
    u64 seed = 1;            //!< Rng seed (stream is per handle)
    unsigned max_retries = 3; //!< kRetryRemap attempts before giving up
};

/** Counters kept by the recovery engine. */
struct FaultStats
{
    u64 injected = 0;     //!< accesses damaged by the injector
    u64 faults_seen = 0;  //!< faulted accesses entering recovery
    u64 recovered = 0;    //!< accesses that succeeded after retry
    u64 dropped = 0;      //!< accesses abandoned (abort/drop/retries out)
    u64 retries = 0;      //!< individual replay attempts

    FaultStats &
    operator+=(const FaultStats &o)
    {
        injected += o.injected;
        faults_seen += o.faults_seen;
        recovered += o.recovered;
        dropped += o.dropped;
        retries += o.retries;
        return *this;
    }
};

/**
 * Per-handle fault policy + injection engine. Owned by every
 * DmaHandle; inert until armed (rate > 0) or until a fault actually
 * reaches recover().
 */
class FaultEngine
{
  public:
    /** Point the engine at the handle's cost model and account. */
    void
    bind(const cycles::CostModel *cost, cycles::CycleAccount *acct)
    {
        cost_ = cost;
        acct_ = acct;
    }

    /** The core whose recorder gets fault events and dumps. */
    void bindCore(des::Core *core) { core_ = core; }

    void setPolicy(FaultPolicy policy) { policy_ = policy; }
    FaultPolicy policy() const { return policy_; }

    void
    setInjection(const FaultInjectConfig &cfg)
    {
        cfg_ = cfg;
        rng_ = Rng(cfg.seed);
    }

    const FaultInjectConfig &injection() const { return cfg_; }

    /** Injection armed: device accesses should draw shouldInject(). */
    bool armed() const { return cfg_.rate > 0.0; }

    /**
     * One Bernoulli draw against the configured rate. Call exactly
     * once per top-level device access while armed, so oracles can
     * mirror the stream.
     */
    bool
    shouldInject()
    {
        if (!rng_.chance(cfg_.rate))
            return false;
        ++stats_.injected;
        return true;
    }

    /**
     * Run the recovery policy for an access that failed with
     * @p fail. @p repair undoes whatever damage caused the fault and
     * acknowledges the fault state (drain log / clear latch);
     * @p retry replays the access. Returns the final status of the
     * access: ok only if a retry succeeded.
     */
    Status recover(Status fail, const std::function<void()> &repair,
                   const std::function<Status()> &retry);

    const FaultStats &stats() const { return stats_; }

  private:
    void charge(Cycles c, bool first);

    FaultPolicy policy_ = FaultPolicy::kAbort;
    FaultInjectConfig cfg_;
    Rng rng_;
    FaultStats stats_;
    const cycles::CostModel *cost_ = nullptr;
    cycles::CycleAccount *acct_ = nullptr;
    des::Core *core_ = nullptr;
};

} // namespace rio::dma

#endif // RIO_DMA_FAULT_H
