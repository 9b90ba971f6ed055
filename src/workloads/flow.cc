#include "workloads/flow.h"

#include <algorithm>

#include "obs/timeline.h"

namespace rio::workloads {

nic::NicStats
statsDelta(const nic::NicStats &a, const nic::NicStats &b)
{
    nic::NicStats d;
    d.tx_packets = a.tx_packets - b.tx_packets;
    d.tx_payload_bytes = a.tx_payload_bytes - b.tx_payload_bytes;
    d.tx_irqs = a.tx_irqs - b.tx_irqs;
    d.rx_packets = a.rx_packets - b.rx_packets;
    d.rx_payload_bytes = a.rx_payload_bytes - b.rx_payload_bytes;
    d.rx_dropped = a.rx_dropped - b.rx_dropped;
    d.rx_irqs = a.rx_irqs - b.rx_irqs;
    d.dma_faults = a.dma_faults - b.dma_faults;
    d.unmap_bursts = a.unmap_bursts - b.unmap_bursts;
    d.unmap_burst_len_sum = a.unmap_burst_len_sum - b.unmap_burst_len_sum;
    d.surprise_unplugs = a.surprise_unplugs - b.surprise_unplugs;
    d.replugs = a.replugs - b.replugs;
    return d;
}

RunResult
windowResult(const FlowSnapshot &start, const FlowSnapshot &end,
             double core_ghz)
{
    RunResult r;
    r.duration_s = static_cast<double>(end.t - start.t) * 1e-9;
    r.acct = end.acct.since(start.acct);
    r.cpu = std::min(1.0, static_cast<double>(end.busy - start.busy) /
                              core_ghz /
                              static_cast<double>(end.t - start.t));
    return r;
}

void
finishWindow(RunResult &r)
{
    r.cycles_per_packet =
        static_cast<double>(r.acct.total()) /
        static_cast<double>(std::max<u64>(r.tx_packets, 1));
    r.avg_unmap_burst =
        r.nic.unmap_bursts ? static_cast<double>(r.nic.unmap_burst_len_sum) /
                                 static_cast<double>(r.nic.unmap_bursts)
                           : 0.0;
    r.vm_exits = r.acct.ops(cycles::Cat::kVirt);
}

RunResult
sumFlows(const std::vector<RunResult> &flows)
{
    RunResult sum;
    for (const RunResult &f : flows) {
        sum.duration_s = std::max(sum.duration_s, f.duration_s);
        sum.tx_packets += f.tx_packets;
        sum.rx_packets += f.rx_packets;
        sum.tx_payload_bytes += f.tx_payload_bytes;
        sum.transactions += f.transactions;
        sum.throughput_gbps += f.throughput_gbps;
        sum.transactions_per_sec += f.transactions_per_sec;
        sum.cpu += f.cpu / static_cast<double>(flows.size());
        sum.acct += f.acct;
        sum.nic += f.nic;
    }
    finishWindow(sum);
    return sum;
}

void
addMachineTotals(RunResult &r, sys::Machine &m)
{
    r.fault = m.faultStats();
    r.surprise_unplugs = m.lifecycleStats().surprise_unplugs;
    r.replugs = m.lifecycleStats().replugs;
    r.detach_faults = m.detachFaultCount();
    r.iova_lock = m.iovaLockStats();
    r.inval_lock = m.invalLockStats();
}

void
publishRow(std::initializer_list<sys::Machine *> machines)
{
    std::vector<obs::Recording> row;
    row.reserve(machines.size());
    for (sys::Machine *m : machines)
        row.push_back(m->recorder().take());
    obs::timeline().add(std::move(row));
}

} // namespace rio::workloads
