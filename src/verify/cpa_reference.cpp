#include "verify/cpa_reference.h"

#include <array>
#include <cmath>

#include "attack/power_model.h"
#include "util/byte_io.h"
#include "util/contracts.h"

namespace leakydsp::verify {

std::vector<std::uint8_t> reference_cpa_state(
    std::span<const crypto::Block> ciphertexts,
    std::span<const double> poi_matrix, std::size_t poi_count) {
  const std::size_t n = ciphertexts.size();
  LD_REQUIRE(poi_count >= 1, "need at least one point of interest");
  LD_REQUIRE(poi_matrix.size() == n * poi_count, "POI matrix size mismatch");
  std::vector<double> sum_t(poi_count, 0.0);
  std::vector<double> sum_t2(poi_count, 0.0);
  std::array<std::array<double, 256>, 16> sum_h{};
  std::array<std::array<double, 256>, 16> sum_h2{};
  std::vector<double> sum_ht(16 * 256 * poi_count, 0.0);

  for (std::size_t t = 0; t < n; ++t) {
    const double* x = poi_matrix.data() + t * poi_count;
    for (std::size_t k = 0; k < poi_count; ++k) {
      sum_t[k] += x[k];
      sum_t2[k] += x[k] * x[k];
    }
    for (int b = 0; b < 16; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      const auto row = attack::last_round_hd_row(ciphertexts[t], b);
      for (std::size_t g = 0; g < 256; ++g) {
        const double h = row[g];
        sum_h[bi][g] += h;
        sum_h2[bi][g] += h * h;
        double* dst = sum_ht.data() + (bi * 256 + g) * poi_count;
        for (std::size_t k = 0; k < poi_count; ++k) {
          dst[k] = std::fma(h, x[k], dst[k]);
        }
      }
    }
  }

  util::ByteWriter out;
  out.u64(poi_count);
  out.u64(n);
  for (const double v : sum_t) out.f64(v);
  for (const double v : sum_t2) out.f64(v);
  for (const auto& per_byte : sum_h) {
    for (const double v : per_byte) out.f64(v);
  }
  for (const auto& per_byte : sum_h2) {
    for (const double v : per_byte) out.f64(v);
  }
  for (const double v : sum_ht) out.f64(v);
  return out.take();
}

}  // namespace leakydsp::verify
