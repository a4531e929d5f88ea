#include "verify/oracle.h"

namespace leakydsp::verify {

std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
  if (util::detected_simd_tier() >= util::SimdTier::kAvx2)
    tiers.push_back(util::SimdTier::kAvx2);
  if (util::detected_simd_tier() >= util::SimdTier::kAvx512)
    tiers.push_back(util::SimdTier::kAvx512);
  return tiers;
}

std::vector<Oracle> all_oracles() {
  std::vector<Oracle> oracles;
  register_timing_oracles(oracles);
  register_sensor_oracles(oracles);
  register_store_oracles(oracles);
  register_attack_oracles(oracles);
  register_simd_oracles(oracles);
  register_serve_oracles(oracles);
  register_pdn_oracles(oracles);
  register_fabric_oracles(oracles);
  return oracles;
}

}  // namespace leakydsp::verify
