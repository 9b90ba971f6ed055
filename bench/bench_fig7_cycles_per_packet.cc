/**
 * @file
 * Reproduces Figure 7 of the paper: CPU cycles spent processing one
 * packet under each of the seven IOMMU modes, Netperf TCP stream on
 * the mlx setup, stacked by component (IOTLB invalidation, page
 * table updates, IOVA (de)allocation, and everything else).
 *
 * Paper reference: C_none = 1,816 cycles (bottom grid line);
 * C_strict ~ 9.4x C_none; the deferred modes eliminate the IOTLB
 * invalidation bar; the "+" modes shrink the IOVA bar; the rIOMMU
 * modes shrink everything.
 */
#include "fig7.h"

using namespace rio;

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    return bench::runFig7(
        args,
        "Figure 7: cycles per packet by component, Netperf stream on "
        "mlx (paper C_none = 1816)",
        "fig7_cycles_per_packet",
        "paper ratios: strict 9.4x, strict+ 5.2x, defer 4.7x, defer+ "
        "3.2x, riommu- ~1.9x, riommu ~1.3x, none 1.0x\n");
}
