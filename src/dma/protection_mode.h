/**
 * @file
 * The seven IOMMU protection modes the paper evaluates (§5.1):
 *
 *   strict   — completely safe Linux baseline: synchronous IOTLB
 *              invalidation on every unmap
 *   strict+  — strict with the authors' constant-time IOVA allocator
 *   defer    — Linux deferred mode: invalidations batched, whole
 *              IOTLB flushed every 250 frees (vulnerability window)
 *   defer+   — defer with the constant-time allocator
 *   riommu-  — the proposed rIOMMU, non-coherent I/O table walks
 *   riommu   — rIOMMU with coherent walks
 *   none     — IOMMU disabled (unprotected optimum)
 */
#ifndef RIO_DMA_PROTECTION_MODE_H
#define RIO_DMA_PROTECTION_MODE_H

#include <array>
#include <optional>
#include <string>

namespace rio::dma {

enum class ProtectionMode {
    kStrict,
    kStrictPlus,
    kDefer,
    kDeferPlus,
    kRiommuNc, //!< riommu- : non-coherent I/O page-table walks
    kRiommu,
    kNone
};

/** Every mode, in the paper's display order. */
inline constexpr std::array<ProtectionMode, 7> kEvaluatedModes = {
    ProtectionMode::kStrict,    ProtectionMode::kStrictPlus,
    ProtectionMode::kDefer,     ProtectionMode::kDeferPlus,
    ProtectionMode::kRiommuNc,  ProtectionMode::kRiommu,
    ProtectionMode::kNone,
};

/** Printable name, matching the paper ("strict+", "riommu-", ...). */
const char *modeName(ProtectionMode mode);

/** Parse a mode name; nullopt on unknown. */
std::optional<ProtectionMode> parseMode(const std::string &name);

/** True for the two rIOMMU variants. */
bool modeUsesRiommu(ProtectionMode mode);

/** True for strict/strict+/defer/defer+. */
bool modeUsesBaselineIommu(ProtectionMode mode);

/** True for the modes offering full intra-OS protection
 * (strict, strict+, riommu-, riommu). Deferred modes trade a stale
 * window for speed; none offers no protection. */
bool modeIsFullySafe(ProtectionMode mode);

/** True if the mode uses the constant-time ("+") IOVA allocator. */
bool modeUsesMagazineAllocator(ProtectionMode mode);

/** True if the mode batches IOTLB invalidations (defer, defer+). */
bool modeDefersInvalidation(ProtectionMode mode);

} // namespace rio::dma

#endif // RIO_DMA_PROTECTION_MODE_H
