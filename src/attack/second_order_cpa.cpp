#include "attack/second_order_cpa.h"

#include <cmath>

#include "util/contracts.h"

namespace leakydsp::attack {

SecondOrderCpa::SecondOrderCpa(std::size_t poi_count)
    : poi_(poi_count), raw_(2 * poi_count), sum_t3_(poi_count, 0.0) {
  LD_REQUIRE(poi_ >= 1, "need at least one point of interest");
}

void SecondOrderCpa::add_trace(const crypto::Block& ciphertext,
                               std::span<const double> poi_samples) {
  add_traces({&ciphertext, 1}, poi_samples);
}

void SecondOrderCpa::add_traces(std::span<const crypto::Block> ciphertexts,
                                std::span<const double> poi_matrix) {
  const std::size_t n = ciphertexts.size();
  LD_REQUIRE(poi_matrix.size() == n * poi_,
             "expected " << n * poi_ << " POI samples for " << n
                         << " traces, got " << poi_matrix.size());
  rows_.resize(2 * n * poi_);
  for (std::size_t t = 0; t < n; ++t) {
    const double* in = poi_matrix.data() + t * poi_;
    double* row = rows_.data() + 2 * t * poi_;
    for (std::size_t k = 0; k < poi_; ++k) {
      row[k] = in[k];
      row[poi_ + k] = in[k] * in[k];
      sum_t3_[k] += row[poi_ + k] * in[k];
    }
  }
  raw_.add_traces(ciphertexts, rows_);
}

ByteScores SecondOrderCpa::snapshot_byte(int byte_index) const {
  LD_REQUIRE(byte_index >= 0 && byte_index < 16, "bad byte index");
  LD_REQUIRE(raw_.traces_ >= 2, "need at least two traces to correlate");
  using Wide = long double;
  const auto b = static_cast<std::size_t>(byte_index);
  const Wide n = static_cast<Wide>(raw_.traces_);

  // Per POI, for the centered squares u = (t - mu)²: the mean mu, Σu and
  // the variance sum Σu² - (Σu)²/n, from Σt … Σt⁴.
  std::vector<Wide> mu(poi_), sum_u(poi_), var_u(poi_);
  for (std::size_t k = 0; k < poi_; ++k) {
    const Wide s1 = raw_.sum_t_[k];
    const Wide s2 = raw_.sum_t2_[k];
    const Wide s3 = sum_t3_[k];
    const Wide s4 = raw_.sum_t2_[poi_ + k];
    const Wide m = s1 / n;
    mu[k] = m;
    sum_u[k] = s2 - s1 * m;
    const Wide sum_u2 =
        s4 - 4 * m * s3 + 6 * m * m * s2 - 3 * n * m * m * m * m;
    var_u[k] = sum_u2 - sum_u[k] * sum_u[k] / n;
  }

  ByteScores result;
  for (std::size_t g = 0; g < 256; ++g) {
    const Wide h1 = raw_.sum_h_[b][g];
    const Wide var_h = raw_.sum_h2_[b][g] - h1 * h1 / n;
    double best = 0.0;
    if (var_h > 1e-12) {
      const double* ht = raw_.sum_ht_[b].data() + g * 2 * poi_;
      for (std::size_t k = 0; k < poi_; ++k) {
        if (var_u[k] <= 1e-12) continue;
        // Σh·u = Σh·t² - 2 mu Σh·t + mu² Σh, then centered on h.
        const Wide sum_hu =
            ht[poi_ + k] - 2 * mu[k] * ht[k] + mu[k] * mu[k] * h1;
        const Wide cov = sum_hu - h1 * sum_u[k] / n;
        const auto rho =
            static_cast<double>(std::abs(cov) / std::sqrt(var_h * var_u[k]));
        if (rho > best) best = rho;
      }
    }
    result.score[g] = best;
  }
  rank_guesses(result);
  return result;
}

crypto::RoundKey SecondOrderCpa::recovered_round_key() const {
  crypto::RoundKey rk{};
  for (int b = 0; b < 16; ++b) {
    rk[static_cast<std::size_t>(b)] = snapshot_byte(b).best_guess;
  }
  return rk;
}

}  // namespace leakydsp::attack
