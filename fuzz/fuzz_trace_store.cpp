// libFuzzer target for the trace-store parser (the v2 byte surface; other
// versions must be rejected).
#include <cstddef>
#include <cstdint>

#include "harness/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return leakydsp::fuzz::fuzz_trace_store(data, size);
}
