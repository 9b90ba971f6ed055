/**
 * @file
 * Umbrella header for the rIOMMU reproduction library. Most users
 * want dma::DmaContext (memory + both IOMMUs + the per-mode DMA API)
 * and, for full-system experiments, sys::Machine plus the workloads.
 *
 * Layering (lowest first):
 *   base    — types, logging, Status/Result, RNG, stats, tables
 *   cycles  — calibrated cost model + per-category cycle accounting
 *   mem     — simulated physical memory
 *   des     — discrete-event kernel + the simulated core
 *   iova    — Linux-style and magazine IOVA allocators
 *   iommu   — baseline VT-d-style IOMMU (tables, IOTLB, walker)
 *   riommu  — the paper's contribution (flat tables, rIOTLB, driver)
 *   dma     — protection modes and the unified DMA API
 *   ring    — generic descriptor rings
 *   nic     — NIC device/driver model (mlx / brcm profiles)
 *   nvme    — NVMe-like queue-pair storage device
 *   ahci    — SATA-like 32-slot out-of-order device
 *   net     — packet/segmentation vocabulary
 *   sys     — Machine: one simulated host
 *   workloads — Netperf stream/RR, Apache, Memcached drivers
 *   trace   — DMA trace capture/replay
 *   prefetch — §5.4 TLB prefetchers + replay harness
 */
#ifndef RIO_RIO_H
#define RIO_RIO_H

#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/table.h"
#include "base/types.h"
#include "cycles/cost_model.h"
#include "cycles/cycle_account.h"
#include "des/core.h"
#include "des/simulator.h"
#include "dma/dma_context.h"
#include "dma/dma_trace.h"
#include "dma/protection_mode.h"
#include "iommu/iommu.h"
#include "iova/linux_allocator.h"
#include "iova/magazine_allocator.h"
#include "mem/phys_mem.h"
#include "net/packet.h"
#include "nic/nic.h"
#include "nvme/nvme.h"
#include "ahci/ahci.h"
#include "prefetch/replay.h"
#include "riommu/rdevice.h"
#include "riommu/riommu.h"
#include "ring/descriptor_ring.h"
#include "sys/machine.h"
#include "workloads/netperf_rr.h"
#include "workloads/request_load.h"
#include "workloads/stream.h"

#endif // RIO_RIO_H
