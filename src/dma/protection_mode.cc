#include "dma/protection_mode.h"

namespace rio::dma {

const char *
modeName(ProtectionMode mode)
{
    switch (mode) {
      case ProtectionMode::kStrict: return "strict";
      case ProtectionMode::kStrictPlus: return "strict+";
      case ProtectionMode::kDefer: return "defer";
      case ProtectionMode::kDeferPlus: return "defer+";
      case ProtectionMode::kRiommuNc: return "riommu-";
      case ProtectionMode::kRiommu: return "riommu";
      case ProtectionMode::kNone: return "none";
    }
    return "unknown";
}

std::optional<ProtectionMode>
parseMode(const std::string &name)
{
    for (ProtectionMode m : kEvaluatedModes) {
        if (name == modeName(m))
            return m;
    }
    return std::nullopt;
}

bool
modeUsesRiommu(ProtectionMode mode)
{
    return mode == ProtectionMode::kRiommuNc ||
           mode == ProtectionMode::kRiommu;
}

bool
modeUsesBaselineIommu(ProtectionMode mode)
{
    return mode == ProtectionMode::kStrict ||
           mode == ProtectionMode::kStrictPlus ||
           mode == ProtectionMode::kDefer ||
           mode == ProtectionMode::kDeferPlus;
}

bool
modeIsFullySafe(ProtectionMode mode)
{
    return mode == ProtectionMode::kStrict ||
           mode == ProtectionMode::kStrictPlus || modeUsesRiommu(mode);
}

bool
modeUsesMagazineAllocator(ProtectionMode mode)
{
    return mode == ProtectionMode::kStrictPlus ||
           mode == ProtectionMode::kDeferPlus;
}

bool
modeDefersInvalidation(ProtectionMode mode)
{
    return mode == ProtectionMode::kDefer ||
           mode == ProtectionMode::kDeferPlus;
}

} // namespace rio::dma
