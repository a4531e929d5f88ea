// The fixed campaign fuzz_checkpoint resumes into. The committed seed
// corpus (fuzz/corpus/checkpoint/valid_*.ckpt) holds checkpoints written
// by THIS configuration, so fuzzing reaches past the config-compatibility
// checks into the accumulator/RNG decoding; the corpus tests rebuild the
// same world to check that the seeds resume and keep their bytes.
#pragma once

#include <string>

#include "attack/campaign.h"
#include "core/leaky_dsp.h"
#include "sim/sensor_rig.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace leakydsp::fuzz {

/// One campaign world checkpointing to "<dir>/campaign.ckpt", built
/// exactly as a resuming process would (fresh key, victim, sensor and
/// calibration from one fixed seed). Members depend on each other in
/// declaration order; the object must not move.
struct CheckpointWorld {
  explicit CheckpointWorld(const std::string& dir);
  CheckpointWorld(const CheckpointWorld&) = delete;
  CheckpointWorld& operator=(const CheckpointWorld&) = delete;

  util::Rng rng;
  victim::AesCoreModel aes;
  core::LeakyDspSensor sensor;
  sim::SensorRig rig;
  attack::TraceCampaign campaign;
};

}  // namespace leakydsp::fuzz
