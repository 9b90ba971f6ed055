#include "dma/fault.h"

#include "base/logging.h"
#include "des/core.h"

namespace rio::dma {

const char *
faultPolicyName(FaultPolicy policy)
{
    switch (policy) {
      case FaultPolicy::kAbort: return "abort";
      case FaultPolicy::kRetryRemap: return "retry-remap";
      case FaultPolicy::kDropBackoff: return "drop-backoff";
    }
    RIO_PANIC("bad FaultPolicy");
}

void
FaultEngine::charge(Cycles c, bool first)
{
    if (!acct_)
        return;
    if (first)
        acct_->charge(cycles::Cat::kFaultHandling, c);
    else
        acct_->chargeCont(cycles::Cat::kFaultHandling, c);
}

Status
FaultEngine::recover(Status fail, const std::function<void()> &repair,
                     const std::function<Status()> &retry)
{
    RIO_ASSERT(!fail.isOk(), "recover() on a successful access");
    ++stats_.faults_seen;
    if (core_) {
        obs::Event ev;
        ev.kind = obs::Ev::kFault;
        ev.arg = static_cast<u64>(policy_);
        core_->emit(ev);
        core_->dump("dma_fault");
    }
    // Every recovery starts with the fault interrupt: read the fault
    // status and drain the record(s). One op per handled fault.
    charge(cost_ ? cost_->fault_report : 0, /*first=*/true);

    switch (policy_) {
      case FaultPolicy::kAbort:
        repair();
        ++stats_.dropped;
        return fail;

      case FaultPolicy::kDropBackoff:
        repair();
        charge(cost_ ? cost_->fault_backoff : 0, /*first=*/false);
        ++stats_.dropped;
        return fail;

      case FaultPolicy::kRetryRemap: {
        Status last = fail;
        const unsigned attempts = cfg_.max_retries ? cfg_.max_retries : 1;
        for (unsigned i = 0; i < attempts; ++i) {
            repair();
            charge(cost_ ? cost_->fault_remap : 0, /*first=*/false);
            ++stats_.retries;
            last = retry();
            if (last.isOk()) {
                ++stats_.recovered;
                return last;
            }
        }
        ++stats_.dropped;
        return last;
      }
    }
    RIO_PANIC("bad FaultPolicy");
}

} // namespace rio::dma
