// Tests for trace persistence: round-trips, format validation, and the
// offline-CPA workflow (record once, attack from disk).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "crypto/aes128.h"
#include "sim/trace_store.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "victim/aes_core.h"

namespace lsim = leakydsp::sim;
namespace lc = leakydsp::crypto;
namespace la = leakydsp::attack;
namespace lu = leakydsp::util;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string("/tmp/leakydsp_test_") + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Streams every trace of a v2 file back into memory.
std::vector<lsim::StoredTrace> load_all(const std::string& path) {
  lsim::TraceStoreReader reader(path);
  std::vector<lsim::StoredTrace> traces;
  lsim::StoredTrace t;
  while (reader.next(t)) traces.push_back(t);
  return traces;
}

}  // namespace

TEST(TraceStore, RoundTripPreservesData) {
  lu::Rng rng(901);
  std::vector<lsim::StoredTrace> written(50);
  const TempFile file("roundtrip.ldtr");
  lsim::TraceStoreWriter writer(file.path(), 30);
  for (auto& t : written) {
    for (auto& b : t.ciphertext) b = static_cast<std::uint8_t>(rng() & 0xff);
    t.samples.resize(30);
    for (auto& s : t.samples) s = rng.gaussian(40.0, 1.0);
    writer.add(t.ciphertext, t.samples);
  }
  writer.finish();
  EXPECT_EQ(lsim::TraceStoreReader(file.path()).samples_per_trace(), 30u);
  const auto loaded = load_all(file.path());
  ASSERT_EQ(loaded.size(), written.size());
  for (std::size_t t = 0; t < written.size(); ++t) {
    EXPECT_EQ(loaded[t].ciphertext, written[t].ciphertext);
    EXPECT_EQ(loaded[t].samples, written[t].samples);
  }
}

TEST(TraceStore, EmptyStoreRoundTrips) {
  const TempFile file("empty.ldtr");
  lsim::TraceStoreWriter(file.path(), 10).finish();
  lsim::TraceStoreReader reader(file.path());
  EXPECT_EQ(reader.trace_count(), 0u);
  EXPECT_EQ(reader.samples_per_trace(), 10u);
  EXPECT_TRUE(load_all(file.path()).empty());
}

TEST(TraceStore, SampleCountMismatchRejected) {
  const TempFile file("mismatch.ldtr");
  lsim::TraceStoreWriter writer(file.path(), 8);
  EXPECT_THROW(writer.add(lc::Block{}, std::vector<double>(7)),
               lu::PreconditionError);
}

TEST(TraceStore, MissingFileRejected) {
  EXPECT_THROW(load_all("/tmp/leakydsp_does_not_exist.ldtr"),
               lu::PreconditionError);
}

TEST(TraceStore, BadMagicRejected) {
  const TempFile file("badmagic.ldtr");
  std::ofstream os(file.path(), std::ios::binary);
  os << "NOPEimmaterial trailing bytes";
  os.close();
  EXPECT_THROW(load_all(file.path()), lu::PreconditionError);
}

TEST(TraceStore, TruncatedFileRejected) {
  const TempFile file("trunc.ldtr");
  {
    lsim::TraceStoreWriter writer(file.path(), 16);
    for (int t = 0; t < 5; ++t) {
      writer.add(lc::Block{}, std::vector<double>(16, 1.0));
    }
    writer.finish();
  }
  // Chop the last 8 bytes off.
  std::ifstream is(file.path(), std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(is.tellg());
  std::vector<char> bytes(static_cast<std::size_t>(size - 8));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  is.close();
  std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  EXPECT_THROW(load_all(file.path()), lu::PreconditionError);
}

TEST(TraceStore, StreamingWriterReaderRoundTrip) {
  lu::Rng rng(904);
  const TempFile file("stream.ldtr");
  std::vector<lc::Block> cts(8);
  std::vector<std::vector<double>> samples(8, std::vector<double>(6));
  {
    // chunk_traces=3: exercises two full chunks plus a short final one.
    lsim::TraceStoreWriter writer(file.path(), 6, 3);
    for (std::size_t t = 0; t < 8; ++t) {
      for (auto& b : cts[t]) b = static_cast<std::uint8_t>(rng() & 0xff);
      for (auto& s : samples[t]) s = rng.gaussian();
      writer.add(cts[t], samples[t]);
      EXPECT_EQ(writer.size(), t + 1);
    }
    writer.finish();
  }
  lsim::TraceStoreReader reader(file.path());
  EXPECT_EQ(reader.samples_per_trace(), 6u);
  ASSERT_EQ(reader.trace_count(), 8u);  // known before streaming starts
  lsim::StoredTrace trace;
  for (std::size_t t = 0; t < 8; ++t) {
    ASSERT_TRUE(reader.next(trace));
    EXPECT_EQ(trace.ciphertext, cts[t]);
    EXPECT_EQ(trace.samples, samples[t]);
  }
  EXPECT_FALSE(reader.next(trace));
}

TEST(TraceStore, WriterRejectsDoubleFinishAndLateAdds) {
  const TempFile file("finish.ldtr");
  lsim::TraceStoreWriter writer(file.path(), 4);
  writer.add(lc::Block{}, std::vector<double>(4, 0.0));
  writer.finish();
  EXPECT_THROW(writer.finish(), lu::PreconditionError);
  EXPECT_THROW(writer.add(lc::Block{}, std::vector<double>(4, 0.0)),
               lu::PreconditionError);
}

TEST(TraceStore, WriterRejectsSamplesPerTraceBeyondU32) {
  // The header field is u32; oversized values used to be silently
  // truncated into a header describing a different geometry.
  const TempFile file("wide.ldtr");
  EXPECT_THROW(lsim::TraceStoreWriter(file.path(), std::size_t{1} << 33),
               lu::PreconditionError);
}

TEST(TraceStore, V1HeaderRejected) {
  // The reader knows only v2. A well-formed v1 file (header + raw records,
  // no checksums) is an unsupported version, not a trace source.
  const TempFile file("v1.ldtr");
  {
    std::ofstream os(file.path(), std::ios::binary);
    const char magic[4] = {'L', 'D', 'T', 'R'};
    const std::uint32_t version = 1;
    const std::uint32_t spt = 3;
    const std::uint64_t count = 1;
    os.write(magic, 4);
    os.write(reinterpret_cast<const char*>(&version), 4);
    os.write(reinterpret_cast<const char*>(&spt), 4);
    os.write(reinterpret_cast<const char*>(&count), 8);
    const std::array<char, 16 + 3 * 8> record{};
    os.write(record.data(), record.size());
  }
  try {
    lsim::TraceStoreReader reader(file.path());
    FAIL() << "v1 file was accepted";
  } catch (const lsim::TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceStore, CorruptFilesThrowTypedTraceFormatError) {
  // The generic PreconditionError assertions elsewhere in this file stay
  // valid because TraceFormatError derives from it; new call sites can
  // catch the precise type.
  const TempFile file("typed.ldtr");
  std::ofstream os(file.path(), std::ios::binary);
  os << "NOPE";
  os.close();
  EXPECT_THROW(load_all(file.path()), lsim::TraceFormatError);
}

TEST(TraceStore, OfflineCpaFromDiskRecoversKey) {
  // The paper's split workflow: record traces "on the board", attack
  // offline. Synthetic strong leakage keeps the test fast.
  lu::Rng rng(903);
  lc::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng() & 0xff);
  const lc::Aes128 aes(key);

  const TempFile file("offline.ldtr");
  {
    lsim::TraceStoreWriter writer(file.path(), 1);
    lc::Block pt{};
    for (int t = 0; t < 3000; ++t) {
      const auto trace = aes.encrypt_trace(pt);
      const double leak = -static_cast<double>(
          leakydsp::victim::block_hd(trace.states[9], trace.states[10]));
      writer.add(trace.ciphertext,
                 std::vector<double>{leak + rng.gaussian(0.0, 4.0)});
      pt = trace.ciphertext;
    }
    writer.finish();
  }

  lsim::TraceStoreReader reader(file.path());
  la::CpaAttack cpa(reader.samples_per_trace());
  lsim::StoredTrace trace;
  while (reader.next(trace)) cpa.add_trace(trace.ciphertext, trace.samples);
  EXPECT_EQ(cpa.recovered_master_key(), key);
}
