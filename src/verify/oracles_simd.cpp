// Differential oracles for the SIMD kernel layer (cpu_features.h dispatch):
//   - CpaAttack::add_traces under every available dispatch tier vs the pinned
//     scalar reference tier: byte-identical serialized accumulator state,
//     at a generated batch split (which must also match the unsplit run),
//   - the element-op tiers (fill/divides/budget arithmetic/thermometer
//     count and the Hermite ScaleTable batch) vs the scalar tier: bitwise.
//
// Both oracles pin tiers through util::set_simd_tier_override and release
// it on every exit path, so a failing case never leaks a pinned tier into
// the rest of the sweep. On hosts (or builds) without the vector tiers the
// tier list collapses to {scalar} and the oracles degenerate to cheap
// self-checks — still worth running: they cover the dispatch plumbing.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"
#include "timing/delay_model.h"
#include "util/aligned.h"
#include "util/byte_io.h"
#include "util/cpu_features.h"
#include "util/simd_ops.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

/// Releases the dispatch override on destruction (exception-safe).
struct TierRelease {
  ~TierRelease() { util::set_simd_tier_override(std::nullopt); }
};

std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> tiers{util::SimdTier::kScalar};
  if (util::detected_simd_tier() >= util::SimdTier::kAvx2)
    tiers.push_back(util::SimdTier::kAvx2);
  if (util::detected_simd_tier() >= util::SimdTier::kAvx512)
    tiers.push_back(util::SimdTier::kAvx512);
  return tiers;
}

// ------------------------------------------- CPA kernel tier equivalence

struct SimdCpaConfig {
  std::int64_t poi = 4;
  std::int64_t traces = 50;
  std::int64_t batch = 16;
  std::uint64_t seed = 0;
};

std::string describe_simd_cpa(const SimdCpaConfig& c) {
  std::ostringstream oss;
  oss << "{poi=" << c.poi << " traces=" << c.traces << " batch=" << c.batch
      << " seed=" << c.seed << "}";
  return oss.str();
}

std::vector<std::uint8_t> serialized(const attack::CpaAttack& cpa) {
  util::ByteWriter w;
  cpa.serialize(w);
  return std::vector<std::uint8_t>(w.span().begin(), w.span().end());
}

Property<SimdCpaConfig> simd_cpa_property() {
  Property<SimdCpaConfig> prop;
  prop.name = "simd.cpa_tiers_bitwise";
  prop.generate = [](util::Rng& rng) {
    SimdCpaConfig c;
    c.poi = gen_int(rng, 1, 12);
    c.traces = gen_int(rng, 2, 200);
    c.batch = gen_int(rng, 1, 64);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const SimdCpaConfig& c) {
    std::vector<SimdCpaConfig> out;
    for (const std::int64_t traces : shrink_int(c.traces, 2)) {
      SimdCpaConfig s = c;
      s.traces = traces;
      out.push_back(s);
    }
    for (const std::int64_t poi : shrink_int(c.poi, 1)) {
      SimdCpaConfig s = c;
      s.poi = poi;
      out.push_back(s);
    }
    for (const std::int64_t batch : shrink_int(c.batch, 1)) {
      SimdCpaConfig s = c;
      s.batch = batch;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_simd_cpa;
  prop.check = [](const SimdCpaConfig& c) -> CheckOutcome {
    const TierRelease release;
    const std::size_t poi = static_cast<std::size_t>(c.poi);
    const std::size_t n = static_cast<std::size_t>(c.traces);
    const std::size_t batch = static_cast<std::size_t>(c.batch);
    util::Rng rng(c.seed);
    std::vector<crypto::Block> cts(n);
    std::vector<double> rows(n * poi);
    for (std::size_t t = 0; t < n; ++t) {
      for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
      for (std::size_t k = 0; k < poi; ++k) {
        rows[t * poi + k] =
            static_cast<double>(cts[t][0] & 0x0f) + rng.gaussian();
      }
    }
    const auto feed = [&](attack::CpaAttack& cpa, std::size_t step) {
      for (std::size_t lo = 0; lo < n; lo += step) {
        const std::size_t hi = std::min(lo + step, n);
        cpa.add_traces({cts.data() + lo, hi - lo},
                       {rows.data() + lo * poi, (hi - lo) * poi});
      }
    };

    util::set_simd_tier_override(util::SimdTier::kScalar);
    attack::CpaAttack scalar_whole(poi);
    feed(scalar_whole, n);
    const auto reference = serialized(scalar_whole);

    for (const util::SimdTier tier : available_tiers()) {
      util::set_simd_tier_override(tier);
      attack::CpaAttack split(poi);
      feed(split, batch);
      if (serialized(split) != reference) {
        std::ostringstream oss;
        oss << "CPA serialized state under tier "
            << util::to_string(tier) << " at batch " << batch
            << " diverges from the scalar unsplit reference";
        return fail(oss.str());
      }
    }
    return pass();
  };
  return prop;
}

// --------------------------------------------- element-op tier bitwise

struct SimdOpsConfig {
  std::int64_t n = 16;
  std::uint64_t seed = 0;
};

std::string describe_simd_ops(const SimdOpsConfig& c) {
  std::ostringstream oss;
  oss << "{n=" << c.n << " seed=" << c.seed << "}";
  return oss.str();
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

Property<SimdOpsConfig> simd_ops_property() {
  Property<SimdOpsConfig> prop;
  prop.name = "simd.element_ops_tiers_bitwise";
  prop.generate = [](util::Rng& rng) {
    SimdOpsConfig c;
    c.n = gen_int(rng, 1, 128);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const SimdOpsConfig& c) {
    std::vector<SimdOpsConfig> out;
    for (const std::int64_t n : shrink_int(c.n, 1)) {
      SimdOpsConfig s = c;
      s.n = n;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_simd_ops;
  prop.check = [](const SimdOpsConfig& c) -> CheckOutcome {
    const TierRelease release;
    const std::size_t n = static_cast<std::size_t>(c.n);
    util::Rng rng(c.seed);
    const timing::ScaleTable table{timing::AlphaPowerLaw{}};
    util::aligned_vector<double> x(n), y(n), volts(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.gaussian() * 3.0 + 2.0;
      y[i] = rng.gaussian();
      // Supplies straddling the table range so the fallback patch runs too.
      volts[i] = table.v_lo() +
                 (rng.uniform() * 1.2 - 0.1) * (table.v_hi() - table.v_lo());
    }
    std::vector<double> sorted(x.begin(), x.end());
    std::sort(sorted.begin(), sorted.end());
    const double bound = sorted[n / 2];

    // Random CSR system for the spmv kernel: ascending columns per row,
    // 0-4 nonzeros, ragged on purpose (the vector tiers mask short rows).
    std::vector<std::size_t> row_start(n + 1, 0);
    std::vector<std::size_t> cols;
    std::vector<double> vals;
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t col = rng() % 3;
      for (std::size_t e = 0; e < 4 && col < n; ++e) {
        cols.push_back(col);
        vals.push_back(rng.gaussian());
        col += 1 + rng() % (n / 3 + 1);
      }
      row_start[r + 1] = cols.size();
    }

    util::set_simd_tier_override(util::SimdTier::kScalar);
    util::aligned_vector<double> rf(n), rd(n), rs(n), rn(n), rq(n), rh(n);
    util::simd::fill(rf.data(), n, 0.5);
    util::simd::div_scalar(7.25, x.data(), rd.data(), n);
    util::simd::sub_mul_add(9.5, 0.625, x.data(), y.data(), rs.data(), n);
    util::simd::div_div(x.data(), y.data(), 0.041, rn.data(), rq.data(), n);
    table.eval_batch(volts.data(), rh.data(), n);
    const std::size_t rc = util::simd::count_le(sorted.data(), n, bound);
    util::aligned_vector<double> r_axpy(n), r_xpby(n), r_asd(n), r_spmv(n);
    std::copy(y.begin(), y.end(), r_axpy.begin());
    util::simd::axpy(1.75, x.data(), r_axpy.data(), n);
    std::copy(y.begin(), y.end(), r_xpby.begin());
    util::simd::xpby(x.data(), -0.375, r_xpby.data(), n);
    std::copy(y.begin(), y.end(), r_asd.begin());
    util::simd::add_scaled_diff(2.5, x.data(), volts.data(), r_asd.data(), n);
    const double r_dot = util::simd::dot(x.data(), y.data(), n);
    util::simd::spmv(row_start.data(), cols.data(), vals.data(), x.data(),
                     r_spmv.data(), n);

    for (const util::SimdTier tier : available_tiers()) {
      util::set_simd_tier_override(tier);
      util::aligned_vector<double> a(n), b(n);
      util::simd::fill(a.data(), n, 0.5);
      if (!same_bits(rf.data(), a.data(), n))
        return fail(std::string("fill diverges under ") +
                    util::to_string(tier));
      util::simd::div_scalar(7.25, x.data(), a.data(), n);
      if (!same_bits(rd.data(), a.data(), n))
        return fail(std::string("div_scalar diverges under ") +
                    util::to_string(tier));
      util::simd::sub_mul_add(9.5, 0.625, x.data(), y.data(), a.data(), n);
      if (!same_bits(rs.data(), a.data(), n))
        return fail(std::string("sub_mul_add diverges under ") +
                    util::to_string(tier));
      util::simd::div_div(x.data(), y.data(), 0.041, a.data(), b.data(), n);
      if (!same_bits(rn.data(), a.data(), n) ||
          !same_bits(rq.data(), b.data(), n))
        return fail(std::string("div_div diverges under ") +
                    util::to_string(tier));
      table.eval_batch(volts.data(), a.data(), n);
      if (!same_bits(rh.data(), a.data(), n))
        return fail(std::string("ScaleTable::eval_batch diverges under ") +
                    util::to_string(tier));
      if (util::simd::count_le(sorted.data(), n, bound) != rc)
        return fail(std::string("count_le diverges under ") +
                    util::to_string(tier));
      std::copy(y.begin(), y.end(), a.begin());
      util::simd::axpy(1.75, x.data(), a.data(), n);
      if (!same_bits(r_axpy.data(), a.data(), n))
        return fail(std::string("axpy diverges under ") +
                    util::to_string(tier));
      std::copy(y.begin(), y.end(), a.begin());
      util::simd::xpby(x.data(), -0.375, a.data(), n);
      if (!same_bits(r_xpby.data(), a.data(), n))
        return fail(std::string("xpby diverges under ") +
                    util::to_string(tier));
      std::copy(y.begin(), y.end(), a.begin());
      util::simd::add_scaled_diff(2.5, x.data(), volts.data(), a.data(), n);
      if (!same_bits(r_asd.data(), a.data(), n))
        return fail(std::string("add_scaled_diff diverges under ") +
                    util::to_string(tier));
      const double d = util::simd::dot(x.data(), y.data(), n);
      if (std::bit_cast<std::uint64_t>(d) !=
          std::bit_cast<std::uint64_t>(r_dot))
        return fail(std::string("dot diverges under ") +
                    util::to_string(tier));
      util::simd::spmv(row_start.data(), cols.data(), vals.data(), x.data(),
                       a.data(), n);
      if (!same_bits(r_spmv.data(), a.data(), n))
        return fail(std::string("spmv diverges under ") +
                    util::to_string(tier));
    }
    return pass();
  };
  return prop;
}

}  // namespace

void register_simd_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "CpaAttack::add_traces under every available dispatch tier and a "
      "generated batch split vs the scalar unsplit run: byte-identical "
      "serialized accumulators",
      1, simd_cpa_property()));
  out.push_back(make_oracle(
      "util::simd element ops and ScaleTable::eval_batch under every "
      "available dispatch tier vs the scalar tier: bitwise-equal outputs",
      1, simd_ops_property()));
}

}  // namespace leakydsp::verify
