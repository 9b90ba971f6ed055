#include "virt/vm_exit.h"

#include "base/logging.h"
#include "obs/timeline.h"

namespace rio::virt {

Cycles
VmExitModel::cost(ExitReason r) const
{
    switch (r) {
      case ExitReason::kVregWrite:
      case ExitReason::kQiDoorbell:
        // Full trap-and-emulate path: world switch, exit-reason
        // dispatch, MMIO decode + device-model register update, and
        // the host-side replay of the invalidation.
        return cost_.vmexit_roundtrip + cost_.hyp_dispatch +
               cost_.vreg_emulate + cost_.inval_replay;
      case ExitReason::kQiForward:
        return cost_.vmexit_roundtrip + cost_.hyp_dispatch +
               cost_.inval_replay_nested;
      case ExitReason::kPteWriteProtect:
        return cost_.vmexit_roundtrip + cost_.hyp_dispatch +
               cost_.shadow_sync;
      case ExitReason::kHypercall:
        return cost_.hypercall;
      case ExitReason::kNumReasons: break;
    }
    RIO_PANIC("bad ExitReason");
}

void
VmExitModel::charge(ExitReason r, cycles::CycleAccount *acct,
                    des::Core *core)
{
    const Cycles c = cost(r);
    if (acct)
        acct->charge(cycles::Cat::kVirt, c);
    ++exits_;
    ++by_reason_[static_cast<unsigned>(r)];
    if (core) {
        obs::Event e;
        e.kind = obs::Ev::kVmExit;
        e.arg = static_cast<u64>(r);
        e.dur_ns = static_cast<u64>(static_cast<double>(c) /
                                    cost_.core_ghz);
        // Charged before the timestamp: the span ends "now", after
        // the guest has paid for the round trip.
        e.t = core->virtualNow();
        e.pid = core->obsPid();
        e.tid = core->obsTid();
        obs::timeline().emit(e);
    }
}

} // namespace rio::virt
