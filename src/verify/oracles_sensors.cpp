// Differential oracles for the batched sensor kernels: for every generated
// sensor configuration, VoltageSensor::sample_batch must follow the same
// readout distribution as the scalar sample() loop. The two paths consume
// the rng stream differently by design (ziggurat vs Box-Muller, jitter
// truncation), so agreement is statistical — means within an 8-sigma
// standard-error bound and variances within a wide F-ratio band — which at
// the sample counts used is a ~1e-14 false-positive rate per case while
// still catching any real kernel drift (a single miscounted bit shifts the
// mean by orders of magnitude more than the bound).
//
// The LeakyDSP readout also has an exact law to test both paths against:
// at a fixed supply each bit settles independently with probability
// p_i = Phi((t_capture - settle_i * scale(v)) / sigma), so the readout is
// Poisson-binomial over the 48 bits. That oracle chi-square-tests each
// path's readout histogram against the law computed by dynamic
// programming from the sensor's public timing surface.
//
// The trace-group path (sample_traces) is not a different distribution but
// the same stream: it is checked bitwise against per-trace sample_batch.
// So is LeakyDSP's constant-supply mean_readout, against the base class's
// mean over one sample_batch call.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <numbers>
#include <sstream>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/device.h"
#include "fabric/primitives.h"
#include "sensors/sensor.h"
#include "sensors/tdc.h"
#include "timing/delay_model.h"
#include "util/cpu_features.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

constexpr std::size_t kSamples = 1500;

/// Supply trace shared by both paths: nominal minus a slow droop ramp with
/// a ripple, covering the calibrated operating point and mV-scale
/// excursions to either side.
std::vector<double> make_supply_trace(double droop_mv, std::uint64_t seed) {
  std::vector<double> supply(kSamples);
  util::Rng rng(seed);
  const double phase = rng.uniform(0.0, 6.283185307179586);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(kSamples);
    const double ramp = droop_mv * 1e-3 * x;
    const double ripple =
        0.3 * droop_mv * 1e-3 * std::sin(phase + 40.0 * x);
    supply[i] = 1.0 - ramp - ripple;
  }
  return supply;
}

struct Moments {
  double mean = 0.0;
  double var = 0.0;
};

Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.var += (x - m.mean) * (x - m.mean);
  m.var /= static_cast<double>(xs.size() - 1);
  return m;
}

/// Runs both paths on clones of a calibrated sensor and compares moments.
CheckOutcome compare_batch_to_scalar(const sensors::VoltageSensor& calibrated,
                                     const std::vector<double>& supply,
                                     std::uint64_t noise_seed) {
  const auto scalar_sensor = calibrated.clone();
  const auto batch_sensor = calibrated.clone();
  util::Rng scalar_rng = util::Rng(noise_seed).fork(1);
  util::Rng batch_rng = util::Rng(noise_seed).fork(2);

  std::vector<double> scalar_out(supply.size());
  for (std::size_t i = 0; i < supply.size(); ++i) {
    scalar_out[i] = scalar_sensor->sample(supply[i], scalar_rng);
  }
  std::vector<double> batch_out(supply.size());
  batch_sensor->sample_batch(supply, batch_out, batch_rng);

  const Moments s = moments(scalar_out);
  const Moments b = moments(batch_out);
  const double n = static_cast<double>(supply.size());
  // 8-sigma bound on the difference of two independent sample means.
  const double bound = 8.0 * std::sqrt((s.var + b.var) / n) + 1e-9;
  if (std::fabs(s.mean - b.mean) > bound) {
    std::ostringstream oss;
    oss << "mean drift: scalar=" << s.mean << " batch=" << b.mean
        << " |diff|=" << std::fabs(s.mean - b.mean) << " bound=" << bound;
    return fail(oss.str());
  }
  // Variance band. Sample variance of n samples has relative std
  // ~sqrt(2/n) (~3.7% here); [0.6, 1.67] is ~15 sigma wide. Near-zero
  // variance means a deterministic readout on both paths.
  const double tiny = 1e-9;
  if (s.var < tiny && b.var < tiny) return pass();
  const double ratio = (b.var + tiny) / (s.var + tiny);
  if (ratio < 0.6 || ratio > 1.67) {
    std::ostringstream oss;
    oss << "variance drift: scalar=" << s.var << " batch=" << b.var
        << " ratio=" << ratio;
    return fail(oss.str());
  }
  return pass();
}

// --------------------------------------------------- LeakyDSP batch kernel

struct LeakyBatchConfig {
  std::int64_t n_dsp = 3;
  double bit_spread_ns = 0.40;
  double taper = 1.55;
  double jitter_sigma_ns = 0.008;
  double droop_mv = 8.0;
  std::uint64_t seed = 0;
};

std::string describe_leaky(const LeakyBatchConfig& c) {
  std::ostringstream oss;
  oss << "{n_dsp=" << c.n_dsp << " spread=" << c.bit_spread_ns
      << " taper=" << c.taper << " jitter=" << c.jitter_sigma_ns
      << " droop_mv=" << c.droop_mv << " seed=" << c.seed << "}";
  return oss.str();
}

Property<LeakyBatchConfig> leaky_batch_property() {
  Property<LeakyBatchConfig> prop;
  prop.name = "sensors.leakydsp_batch_vs_scalar";
  prop.generate = [](util::Rng& rng) {
    LeakyBatchConfig c;
    c.n_dsp = gen_int(rng, 1, 4);
    c.bit_spread_ns = gen_real(rng, 0.25, 0.60);
    c.taper = gen_real(rng, 0.0, 1.55);
    c.jitter_sigma_ns = gen_real(rng, 0.004, 0.012);
    c.droop_mv = gen_real(rng, 0.0, 12.0);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const LeakyBatchConfig& c) {
    std::vector<LeakyBatchConfig> out;
    for (const std::int64_t n : shrink_int(c.n_dsp, 1)) {
      LeakyBatchConfig s = c;
      s.n_dsp = n;
      out.push_back(s);
    }
    for (const double taper : shrink_real(c.taper, 0.0)) {
      LeakyBatchConfig s = c;
      s.taper = taper;
      out.push_back(s);
    }
    for (const double droop : shrink_real(c.droop_mv, 0.0)) {
      LeakyBatchConfig s = c;
      s.droop_mv = droop;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_leaky;
  prop.check = [](const LeakyBatchConfig& c) -> CheckOutcome {
    const fabric::Device device = fabric::Device::basys3();
    core::LeakyDspParams params;
    params.n_dsp = static_cast<std::size_t>(c.n_dsp);
    params.bit_spread_ns = c.bit_spread_ns;
    params.taper = c.taper;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    core::LeakyDspSensor sensor(device, {16, 20}, params);
    util::Rng cal_rng(c.seed);
    const auto cal = sensor.calibrate(1.0, cal_rng, 64);
    if (!cal.success) return pass();  // outside the calibratable domain
    return compare_batch_to_scalar(
        sensor, make_supply_trace(c.droop_mv, c.seed ^ 0xBA7C4ull),
        c.seed ^ 0x5EEDull);
  };
  return prop;
}

// -------------------------------------------------------- TDC batch kernel

struct TdcBatchConfig {
  std::int64_t stages = 128;
  double stage_ps = 15.0;
  double init_delay_ns = 5.9;
  double jitter_sigma_ns = 0.005;
  double droop_mv = 8.0;
  std::uint64_t seed = 0;
};

std::string describe_tdc(const TdcBatchConfig& c) {
  std::ostringstream oss;
  oss << "{stages=" << c.stages << " stage_ps=" << c.stage_ps
      << " init=" << c.init_delay_ns << " jitter=" << c.jitter_sigma_ns
      << " droop_mv=" << c.droop_mv << " seed=" << c.seed << "}";
  return oss.str();
}

Property<TdcBatchConfig> tdc_batch_property() {
  Property<TdcBatchConfig> prop;
  prop.name = "sensors.tdc_batch_vs_scalar";
  prop.generate = [](util::Rng& rng) {
    TdcBatchConfig c;
    c.stages = gen_choice<std::int64_t>(rng, {64, 96, 128, 192, 256});
    c.stage_ps = gen_real(rng, 10.0, 20.0);
    c.init_delay_ns = gen_real(rng, 3.0, 9.0);
    c.jitter_sigma_ns = gen_real(rng, 0.002, 0.010);
    c.droop_mv = gen_real(rng, 0.0, 12.0);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const TdcBatchConfig& c) {
    std::vector<TdcBatchConfig> out;
    for (const std::int64_t stages : shrink_int(c.stages, 64)) {
      TdcBatchConfig s = c;
      s.stages = stages;
      out.push_back(s);
    }
    for (const double droop : shrink_real(c.droop_mv, 0.0)) {
      TdcBatchConfig s = c;
      s.droop_mv = droop;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = describe_tdc;
  prop.check = [](const TdcBatchConfig& c) -> CheckOutcome {
    sensors::TdcParams params;
    params.stages = static_cast<std::size_t>(c.stages);
    params.stage_ps = c.stage_ps;
    params.init_delay_ns = c.init_delay_ns;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    sensors::TdcSensor sensor(fabric::Device::basys3(), {2, 10}, params);
    util::Rng cal_rng(c.seed);
    const auto cal = sensor.calibrate(1.0, cal_rng, 64);
    if (!cal.success) return pass();  // outside the calibratable domain
    return compare_batch_to_scalar(
        sensor, make_supply_trace(c.droop_mv, c.seed ^ 0xBA7C4ull),
        c.seed ^ 0x5EEDull);
  };
  return prop;
}

// ------------------------------------------- LeakyDSP exact readout law

constexpr std::size_t kLawSamples = 20000;
constexpr double kLawMinExpected = 5.0;  // chi-square bin floor
constexpr double kLawAlpha = 1e-6;       // rejection level per histogram

/// Upper tail P(X > chi2) of a chi-square law with integer `dof` >= 1,
/// from its closed forms (Abramowitz & Stegun 26.4.4 and 26.4.5).
double chi_square_sf(double chi2, std::size_t dof) {
  const double h = 0.5 * chi2;
  if (dof % 2 == 0) {
    double term = std::exp(-h);
    double sum = term;
    for (std::size_t j = 1; j < dof / 2; ++j) {
      term *= h / static_cast<double>(j);
      sum += term;
    }
    return sum;
  }
  double term = 2.0 * std::exp(-h) * std::sqrt(h / std::numbers::pi);
  double sum = std::erfc(std::sqrt(h));
  for (std::size_t j = 1; j <= (dof - 1) / 2; ++j) {
    sum += term;
    term *= h / (static_cast<double>(j) + 0.5);
  }
  return sum;
}

/// Exact readout pmf of a LeakyDSP sensor at a fixed supply: the
/// Poisson-binomial law of its independently jittered bits.
std::vector<double> leaky_readout_pmf(const core::LeakyDspSensor& sensor,
                                      double supply_v) {
  const double sigma = sensor.params().jitter_sigma_ns;
  const double scale = sensor.params().law.scale(supply_v);
  const double t_capture = sensor.sampling_time_ns();
  const std::size_t bits = sensor.readout_bits();
  std::vector<double> pmf(bits + 1, 0.0);
  pmf[0] = 1.0;
  for (std::size_t i = 0; i < bits; ++i) {
    const double z = (t_capture - sensor.bit_settle_ns(i) * scale) / sigma;
    const double p = 0.5 * std::erfc(-z / std::sqrt(2.0));
    for (std::size_t k = i + 1; k > 0; --k) {
      pmf[k] = pmf[k] * (1.0 - p) + pmf[k - 1] * p;
    }
    pmf[0] *= 1.0 - p;
  }
  return pmf;
}

/// Pearson chi-square of integer readouts against `pmf`, with adjacent
/// readout values merged until every bin expects at least kLawMinExpected
/// (a short remainder joins the last bin; the outer bins absorb any value
/// the law gives no mass). Fails when the upper-tail p-value is below
/// kLawAlpha.
CheckOutcome chi_square_against(const std::vector<double>& readouts,
                                const std::vector<double>& pmf,
                                const char* path, double supply_v) {
  const double n = static_cast<double>(readouts.size());
  std::vector<double> observed(pmf.size(), 0.0);
  for (const double r : readouts) {
    const auto k = static_cast<std::size_t>(
        std::clamp(r, 0.0, static_cast<double>(pmf.size() - 1)));
    if (static_cast<double>(k) != r) {
      std::ostringstream oss;
      oss << path << " readout " << r << " is not a bit count";
      return fail(oss.str());
    }
    observed[k] += 1.0;
  }
  std::vector<double> bin_expected;
  std::vector<double> bin_observed;
  double expected = 0.0;
  double seen = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    expected += n * pmf[k];
    seen += observed[k];
    if (expected >= kLawMinExpected) {
      bin_expected.push_back(expected);
      bin_observed.push_back(seen);
      expected = 0.0;
      seen = 0.0;
    }
  }
  bin_expected.back() += expected;
  bin_observed.back() += seen;
  if (bin_expected.size() < 2) return pass();  // a deterministic readout
  double chi2 = 0.0;
  for (std::size_t b = 0; b < bin_expected.size(); ++b) {
    const double diff = bin_observed[b] - bin_expected[b];
    chi2 += diff * diff / bin_expected[b];
  }
  const std::size_t dof = bin_expected.size() - 1;
  const double p_value = chi_square_sf(chi2, dof);
  if (p_value < kLawAlpha) {
    std::ostringstream oss;
    oss << path << " at " << supply_v << " V: chi2=" << chi2 << " dof=" << dof
        << " p=" << p_value;
    return fail(oss.str());
  }
  return pass();
}

struct LeakyLawConfig {
  double droop_mv = 4.0;
  std::uint64_t seed = 0;
};

Property<LeakyLawConfig> leaky_law_property() {
  Property<LeakyLawConfig> prop;
  prop.name = "sensors.leakydsp_exact_law";
  prop.generate = [](util::Rng& rng) {
    LeakyLawConfig c;
    c.droop_mv = gen_real(rng, 1.0, 10.0);
    c.seed = rng();
    return c;
  };
  prop.describe = [](const LeakyLawConfig& c) {
    std::ostringstream oss;
    oss << "{droop_mv=" << c.droop_mv << " seed=" << c.seed << "}";
    return oss.str();
  };
  prop.check = [](const LeakyLawConfig& c) -> CheckOutcome {
    core::LeakyDspSensor sensor(fabric::Device::basys3(), {16, 20});
    util::Rng cal_rng(c.seed);
    if (!sensor.calibrate(1.0, cal_rng, 64).success) {
      return fail("default LeakyDSP failed to calibrate");
    }
    util::Rng rng = util::Rng(c.seed).fork(3);
    // Near idle, and at a droop that moves the readout by several bits.
    for (const double v : {1.0, 1.0 - c.droop_mv * 1e-3}) {
      const std::vector<double> pmf = leaky_readout_pmf(sensor, v);
      std::vector<double> scalar(kLawSamples);
      for (double& r : scalar) r = sensor.sample(v, rng);
      if (auto o = chi_square_against(scalar, pmf, "sample()", v); !o.ok) {
        return o;
      }
      const std::vector<double> supply(kLawSamples, v);
      std::vector<double> batch(kLawSamples);
      sensor.sample_batch(supply, batch, rng);
      if (auto o = chi_square_against(batch, pmf, "sample_batch()", v);
          !o.ok) {
        return o;
      }
    }
    return pass();
  };
  return prop;
}

// ------------------------------------------ LeakyDSP trace-group kernel

struct LeakyGroupConfig {
  std::int64_t traces = 8;
  std::int64_t readouts = 195;
  std::int64_t n_dsp = 3;
  double taper = 1.55;
  double jitter_sigma_ns = 0.008;
  double droop_mv = 8.0;
  std::uint64_t seed = 0;
};

Property<LeakyGroupConfig> leaky_group_property() {
  Property<LeakyGroupConfig> prop;
  prop.name = "simd.leakydsp_groups_bitwise";
  prop.generate = [](util::Rng& rng) {
    LeakyGroupConfig c;
    c.traces = gen_int(
        rng, 1, static_cast<std::int64_t>(sensors::VoltageSensor::kTraceGroup));
    c.readouts = gen_int(rng, 1, 300);
    c.n_dsp = gen_int(rng, 1, 4);
    c.taper = gen_real(rng, 0.0, 1.55);
    // Mostly the campaign's jitter range; sometimes none (no draws), and
    // sometimes wide enough for windows of more than 32 bits.
    const std::int64_t kind = gen_int(rng, 0, 9);
    c.jitter_sigma_ns = kind == 0   ? 0.0
                        : kind == 1 ? gen_real(rng, 0.02, 0.05)
                                    : gen_real(rng, 0.004, 0.012);
    c.droop_mv = gen_real(rng, 0.0, 60.0);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const LeakyGroupConfig& c) {
    std::vector<LeakyGroupConfig> out;
    for (const std::int64_t k : shrink_int(c.traces, 1)) {
      LeakyGroupConfig s = c;
      s.traces = k;
      out.push_back(s);
    }
    for (const std::int64_t n : shrink_int(c.readouts, 1)) {
      LeakyGroupConfig s = c;
      s.readouts = n;
      out.push_back(s);
    }
    for (const double droop : shrink_real(c.droop_mv, 0.0)) {
      LeakyGroupConfig s = c;
      s.droop_mv = droop;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = [](const LeakyGroupConfig& c) {
    std::ostringstream oss;
    oss << "{traces=" << c.traces << " readouts=" << c.readouts
        << " n_dsp=" << c.n_dsp << " taper=" << c.taper
        << " jitter=" << c.jitter_sigma_ns << " droop_mv=" << c.droop_mv
        << " seed=" << c.seed << "}";
    return oss.str();
  };
  prop.check = [](const LeakyGroupConfig& c) -> CheckOutcome {
    const TierRelease release;
    core::LeakyDspParams params;
    params.n_dsp = static_cast<std::size_t>(c.n_dsp);
    params.taper = c.taper;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    core::LeakyDspSensor sensor(fabric::Device::basys3(), {16, 20}, params);
    util::Rng rng(c.seed);
    if (!sensor.calibrate(1.0, rng, 64).success) return pass();
    const std::size_t k = static_cast<std::size_t>(c.traces);
    const std::size_t n = static_cast<std::size_t>(c.readouts);
    std::vector<double> supplies(k * n);
    for (double& v : supplies) v = rng.uniform(1.0 - c.droop_mv * 1e-3, 1.006);
    std::vector<util::Rng> start;
    for (std::size_t g = 0; g < k; ++g) start.push_back(rng.fork(g));

    // Reference: per-trace sample_batch on the scalar tier.
    util::set_simd_tier_override(util::SimdTier::kScalar);
    std::vector<double> reference(k * n);
    std::vector<util::Rng> reference_rngs = start;
    for (std::size_t g = 0; g < k; ++g) {
      sensor.sample_batch(std::span<const double>(supplies).subspan(g * n, n),
                          std::span<double>(reference).subspan(g * n, n),
                          reference_rngs[g]);
    }
    for (const util::SimdTier tier : available_tiers()) {
      util::set_simd_tier_override(tier);
      std::vector<util::Rng> rngs = start;
      std::vector<double> out(k * n);
      sensor.sample_traces(supplies, out, rngs);
      if (std::memcmp(out.data(), reference.data(),
                      out.size() * sizeof(double)) != 0) {
        return fail(std::string("sample_traces readouts diverge under ") +
                    util::to_string(tier));
      }
      for (std::size_t g = 0; g < k; ++g) {
        if (rngs[g].serialize() != reference_rngs[g].serialize() ||
            rngs[g].draws() != reference_rngs[g].draws()) {
          std::ostringstream oss;
          oss << "trace " << g << "'s rng ends elsewhere under "
              << util::to_string(tier);
          return fail(oss.str());
        }
      }
    }
    return pass();
  };
  return prop;
}

// ------------------------------------ LeakyDSP constant-supply mean

struct LeakyMeanConfig {
  std::int64_t n_dsp = 3;
  double taper = 1.55;
  double jitter_sigma_ns = 0.008;
  std::uint64_t seed = 0;
};

/// The supply in `table`'s range nearest the one at which `bit` settles
/// exactly at the capture edge: bisection on the alpha-power law, whose
/// delay scale falls as the supply rises.
double edge_supply(const core::LeakyDspSensor& sensor, std::size_t bit,
                   const timing::ScaleTable& table) {
  const double target = sensor.sampling_time_ns() / sensor.bit_settle_ns(bit);
  double lo = table.v_lo();
  double hi = table.v_hi();
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (sensor.params().law.scale(mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

Property<LeakyMeanConfig> leaky_mean_property() {
  Property<LeakyMeanConfig> prop;
  prop.name = "sensors.leakydsp_constant_mean_bitwise";
  prop.generate = [](util::Rng& rng) {
    LeakyMeanConfig c;
    c.n_dsp = gen_int(rng, 1, 4);
    c.taper = gen_real(rng, 0.0, 1.55);
    // Mostly the campaign's jitter range; sometimes none (no draws), and
    // sometimes wide enough for windows of the whole word.
    const std::int64_t kind = gen_int(rng, 0, 9);
    c.jitter_sigma_ns = kind == 0   ? 0.0
                        : kind == 1 ? gen_real(rng, 0.02, 0.05)
                                    : gen_real(rng, 0.004, 0.012);
    c.seed = rng();
    return c;
  };
  prop.shrink = [](const LeakyMeanConfig& c) {
    std::vector<LeakyMeanConfig> out;
    for (const std::int64_t n : shrink_int(c.n_dsp, 1)) {
      LeakyMeanConfig s = c;
      s.n_dsp = n;
      out.push_back(s);
    }
    for (const double taper : shrink_real(c.taper, 0.0)) {
      LeakyMeanConfig s = c;
      s.taper = taper;
      out.push_back(s);
    }
    return out;
  };
  prop.describe = [](const LeakyMeanConfig& c) {
    std::ostringstream oss;
    oss << "{n_dsp=" << c.n_dsp << " taper=" << c.taper
        << " jitter=" << c.jitter_sigma_ns << " seed=" << c.seed << "}";
    return oss.str();
  };
  prop.check = [](const LeakyMeanConfig& c) -> CheckOutcome {
    const TierRelease release;
    core::LeakyDspParams params;
    params.n_dsp = static_cast<std::size_t>(c.n_dsp);
    params.taper = c.taper;
    params.jitter_sigma_ns = c.jitter_sigma_ns;
    const fabric::Device device = fabric::Device::basys3();
    core::LeakyDspSensor sensor(device, {16, 20}, params);
    const timing::ScaleTable table(params.law);
    const int taps = fabric::idelay_taps(device.architecture()).tap_count;
    constexpr std::size_t kCounts[] = {1, 2, 7, 64, 256, 1000};
    for (const util::SimdTier tier : available_tiers()) {
      util::set_simd_tier_override(tier);
      // The same supplies and counts on every tier.
      util::Rng pick(c.seed);
      util::Rng fast = util::Rng(c.seed).fork(1);
      util::Rng base = fast;
      // Every coarse setting at every fine phase; the count cycles through
      // kCounts, and the supply is either anywhere in the table's range or
      // one that puts the capture edge on a random bit's settle time.
      for (int k = 0; k < 2 * taps - 1; ++k) {
        if (k < taps) {
          sensor.set_taps(0, taps - 1 - k);
        } else {
          sensor.set_taps(k - taps + 1, 0);
        }
        for (int phase = 0; phase <= 5; ++phase) {
          sensor.set_fine_phase(phase);
          const std::size_t n = kCounts[static_cast<std::size_t>(
              (k + phase) % static_cast<int>(std::size(kCounts)))];
          const double v =
              pick.uniform() < 0.5
                  ? pick.uniform(table.v_lo(), table.v_hi())
                  : edge_supply(sensor, pick() % sensor.readout_bits(), table);
          const double m = sensor.mean_readout(v, n, fast);
          const double ref = sensor.VoltageSensor::mean_readout(v, n, base);
          const bool same_rng = fast.serialize() == base.serialize() &&
                                fast.draws() == base.draws();
          if (std::memcmp(&m, &ref, sizeof m) != 0 || !same_rng) {
            std::ostringstream oss;
            oss.precision(17);
            oss << util::to_string(tier) << " setting " << k << " phase "
                << phase << " n " << n << " v " << v << ": mean " << m
                << " vs sample_batch " << ref
                << (same_rng ? "" : ", rng ends elsewhere");
            return fail(oss.str());
          }
        }
      }
    }
    return pass();
  };
  return prop;
}

}  // namespace

void register_sensor_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "LeakyDspSensor::sample_batch (LUT scale + ziggurat + 8-sigma jitter "
      "truncation) vs scalar sample() loop: same readout distribution",
      1, leaky_batch_property()));
  out.push_back(make_oracle(
      "TdcSensor::sample_batch (LUT scale + ziggurat + O(1) uniform chain) "
      "vs scalar sample() loop: same readout distribution",
      1, tdc_batch_property()));
  out.push_back(make_oracle(
      "LeakyDspSensor sample() and sample_batch() readouts at a fixed supply "
      "vs the exact Poisson-binomial law of the jittered bits: chi-square "
      "p >= 1e-6",
      4, leaky_law_property()));
  out.push_back(make_oracle(
      "LeakyDspSensor::sample_traces (groups of 1-8 traces, AVX-512 lanes "
      "on that tier) under every available dispatch tier vs per-trace "
      "sample_batch on the scalar tier: bitwise-equal readouts, rng states "
      "and draws",
      1, leaky_group_property()));
  out.push_back(make_oracle(
      "LeakyDspSensor::mean_readout (one counting pass at a constant "
      "supply) at every coarse setting and fine phase, n in {1..1000}, "
      "under every available dispatch tier vs the base class's "
      "sample_batch path: bitwise-equal means, rng states and draws",
      1, leaky_mean_property()));
}

}  // namespace leakydsp::verify
