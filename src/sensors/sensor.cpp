#include "sensors/sensor.h"

#include <vector>

namespace leakydsp::sensors {

double VoltageSensor::mean_readout(double supply_v, std::size_t n,
                                   util::Rng& rng) {
  LD_REQUIRE(n >= 1, "need at least one sample");
  const std::vector<double> supply(n, supply_v);
  std::vector<double> out(n);
  sample_batch(supply, out, rng);
  double sum = 0.0;
  for (const double r : out) sum += r;
  return sum / static_cast<double>(n);
}

}  // namespace leakydsp::sensors
