// Fuzz entry points for every surface that parses untrusted bytes. Each
// function feeds arbitrary input through the real production parser and
// must never crash, hang, or allocate unboundedly — malformed input ends
// in the parser's typed error, nothing else.
//
// The same entry points serve two drivers:
//   - libFuzzer executables (fuzz/fuzz_*.cpp, -DLEAKYDSP_FUZZ=ON with
//     clang; a file-replay main under gcc),
//   - the tests/test_fuzz_corpus.cpp replayer, which runs the committed
//     seed corpus under the normal CI sanitizers on every build.
#pragma once

#include <cstddef>
#include <cstdint>

namespace leakydsp::fuzz {

/// Parses `data` as a v2 trace-store file and drains every trace.
/// Malformed input must raise sim::TraceFormatError; anything else (crash,
/// OOM, uncaught exception) is a finding. Returns 0 always.
int fuzz_trace_store(const std::uint8_t* data, std::size_t size);

/// Parses `data` as a campaign.ckpt and resumes a small fixed campaign
/// from it. Malformed or mismatched input must raise
/// attack::CheckpointError; a valid checkpoint resumes and completes.
/// Returns 0 always.
int fuzz_checkpoint(const std::uint8_t* data, std::size_t size);

/// Splits `data` on NUL bytes into an argv vector and runs it through
/// util::Cli parsing plus every typed getter. Malformed input must raise
/// util::PreconditionError. Returns 0 always.
int fuzz_cli(const std::uint8_t* data, std::size_t size);

/// Parses `data` as a JSON device spec, expands it with generate_device,
/// and drives bounded floorplan queries (site types, clock regions,
/// per-type counts, PDN params). Malformed or out-of-domain input must
/// raise fabric::SpecError; a valid spec round-trips through
/// spec_to_json. Returns 0 always.
int fuzz_device_spec(const std::uint8_t* data, std::size_t size);

}  // namespace leakydsp::fuzz
