// Tests for the bitstream codec: CRC, round-trips of every sensor family,
// identical audit verdicts before and after serialization, and rejection
// of every class of malformed blob.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/leaky_dsp.h"
#include "fabric/bitstream.h"
#include "fabric/device.h"
#include "fabric/netlist_builders.h"
#include "sensors/rds.h"
#include "sensors/tdc.h"
#include "util/contracts.h"
#include "util/cpu_features.h"
#include "util/crc32.h"
#include "verify/oracle.h"

namespace lf = leakydsp::fabric;
namespace lu = leakydsp::util;

// ------------------------------------------------------------------- CRC

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (the standard check value).
  const std::string s = "123456789";
  std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(lu::crc32(data), 0xCBF43926u);
  EXPECT_EQ(lu::crc32(std::vector<std::uint8_t>{}), 0x00000000u);
}

namespace {

// The scalar tier's bytewise loop, written out here so the test does not
// trust the class it checks.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xEDB88320u & -(crc & 1u));
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

TEST(Crc32, EveryTierMatchesTheBytewiseLoop) {
  std::vector<std::uint8_t> data(300);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  const std::string check = "123456789";
  const leakydsp::verify::TierRelease release;
  for (const auto tier : leakydsp::verify::available_tiers()) {
    lu::set_simd_tier_override(tier);
    SCOPED_TRACE(lu::to_string(tier));
    EXPECT_EQ(lu::crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                         check.size()}),
              0xCBF43926u);
    for (std::size_t n = 0; n <= data.size(); ++n) {
      ASSERT_EQ(lu::crc32({data.data(), n}), crc32_bitwise(data.data(), n))
          << "length " << n;
    }
    // The fold's edges: one block, one block +-1 byte, a 16-byte tail past
    // a block, and whole multiples — at every start offset 0..15.
    for (const std::size_t n : {63u, 64u, 65u, 79u, 80u, 128u}) {
      for (std::size_t off = 0; off < 16; ++off) {
        ASSERT_EQ(lu::crc32({data.data() + off, n}),
                  crc32_bitwise(data.data() + off, n))
            << "length " << n << " offset " << off;
        // Split in two updates: a folded head chained into a bytewise tail.
        lu::Crc32 split;
        split.update({data.data() + off, n / 2})
            .update({data.data() + off + n / 2, n - n / 2});
        ASSERT_EQ(split.value(), crc32_bitwise(data.data() + off, n))
            << "split length " << n << " offset " << off;
      }
    }
  }
}

TEST(Crc32, SensitiveToEveryByte) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto base = lu::crc32(data);
  for (std::size_t i = 0; i < data.size(); i += 7) {
    auto tweaked = data;
    tweaked[i] ^= 0x01;
    EXPECT_NE(lu::crc32(tweaked), base) << "byte " << i;
  }
}

// ------------------------------------------------------------ round trips

namespace {

void expect_same_structure(const lf::Netlist& a, const lf::Netlist& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (lf::CellId id = 0; id < a.cell_count(); ++id) {
    EXPECT_EQ(a.cell(id).type, b.cell(id).type) << "cell " << id;
    EXPECT_EQ(a.cell(id).name, b.cell(id).name) << "cell " << id;
    EXPECT_EQ(a.cell(id).site.has_value(), b.cell(id).site.has_value());
    if (a.cell(id).site && b.cell(id).site) {
      EXPECT_EQ(a.cell(id).site->x, b.cell(id).site->x);
      EXPECT_EQ(a.cell(id).site->y, b.cell(id).site->y);
    }
    EXPECT_EQ(a.fanout(id), b.fanout(id)) << "cell " << id;
  }
}

}  // namespace

TEST(Bitstream, LeakyDspRoundTrip) {
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 3);
  const auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
  const auto decoded = lf::decode_bitstream(blob);
  EXPECT_EQ(decoded.arch, lf::Architecture::kSeries7);
  expect_same_structure(design, decoded.design);
}

TEST(Bitstream, TdcAndRoRoundTrip) {
  for (const auto& design :
       {lf::build_tdc_netlist(32, 5, 0), lf::build_ro_netlist(16)}) {
    const auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
    const auto decoded = lf::decode_bitstream(blob);
    expect_same_structure(design, decoded.design);
  }
}

TEST(Bitstream, DspConfigFieldsSurvive) {
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kUltraScalePlus, 2);
  const auto blob =
      encode_bitstream(design, lf::Architecture::kUltraScalePlus);
  const auto decoded = lf::decode_bitstream(blob);
  bool found_dsp = false;
  for (const auto& cell : decoded.design.cells()) {
    if (cell.type != lf::CellType::kDsp48) continue;
    found_dsp = true;
    const auto* cfg = std::get_if<lf::Dsp48Config>(&cell.config);
    ASSERT_NE(cfg, nullptr);
    EXPECT_EQ(cfg->arch, lf::Architecture::kUltraScalePlus);
    EXPECT_TRUE(cfg->fully_combinational());
    EXPECT_EQ(cfg->static_b, 1);
  }
  EXPECT_TRUE(found_dsp);
}

TEST(Bitstream, AuditVerdictIdenticalAfterSerialization) {
  const auto policies = {lf::CheckPolicy::deployed(),
                         lf::CheckPolicy::with_dsp_rule()};
  for (const auto& policy : policies) {
    for (const auto& design :
         {lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 3),
          lf::build_tdc_netlist(32, 5, 0), lf::build_ro_netlist(8)}) {
      const auto direct = audit_bitstream(design, policy);
      const auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
      const auto via_blob = lf::audit_bitstream_blob(blob, policy);
      EXPECT_EQ(direct.accepted(), via_blob.accepted());
      ASSERT_EQ(direct.violations.size(), via_blob.violations.size());
      for (std::size_t v = 0; v < direct.violations.size(); ++v) {
        EXPECT_EQ(direct.violations[v].rule, via_blob.violations[v].rule);
      }
    }
  }
}

TEST(Bitstream, SensorNetlistsEncodeFromModels) {
  const auto dev = lf::Device::basys3();
  leakydsp::core::LeakyDspSensor leaky(dev, {16, 20});
  leakydsp::sensors::TdcSensor tdc(dev, {2, 10});
  leakydsp::sensors::RdsSensor rds(dev, {3, 10});
  for (const auto& nl : {leaky.netlist(), tdc.netlist(), rds.netlist()}) {
    const auto blob = encode_bitstream(nl, dev.architecture());
    EXPECT_NO_THROW(lf::decode_bitstream(blob));
  }
}

// -------------------------------------------------------------- rejection

TEST(Bitstream, CorruptedCrcRejected) {
  const auto design = lf::build_ro_netlist(2);
  auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(lf::decode_bitstream(blob), lu::PreconditionError);
}

TEST(Bitstream, TruncationRejected) {
  const auto design = lf::build_ro_netlist(2);
  auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
  blob.resize(blob.size() - 9);
  EXPECT_THROW(lf::decode_bitstream(blob), lu::PreconditionError);
}

TEST(Bitstream, BadMagicRejected) {
  const auto design = lf::build_ro_netlist(1);
  auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
  blob[0] = 'X';
  // Fix up the CRC so only the magic is wrong.
  const auto body_crc =
      lu::crc32(std::span<const std::uint8_t>(blob).subspan(0, blob.size() - 4));
  blob[blob.size() - 4] = static_cast<std::uint8_t>(body_crc & 0xff);
  blob[blob.size() - 3] = static_cast<std::uint8_t>((body_crc >> 8) & 0xff);
  blob[blob.size() - 2] = static_cast<std::uint8_t>((body_crc >> 16) & 0xff);
  blob[blob.size() - 1] = static_cast<std::uint8_t>((body_crc >> 24) & 0xff);
  EXPECT_THROW(lf::decode_bitstream(blob), lu::PreconditionError);
}

TEST(Bitstream, EmptyBlobRejected) {
  EXPECT_THROW(lf::decode_bitstream(std::vector<std::uint8_t>{}),
               lu::PreconditionError);
}

TEST(Bitstream, IllegalConfigCannotSmugglePastScanner) {
  // Hand-craft a blob whose DSP has AREG=7 (illegal): the decoder must
  // reject it via the same config validation the builder applies, so a
  // malformed payload cannot evade the rules by confusing the parser.
  const auto design =
      lf::build_leakydsp_netlist(lf::Architecture::kSeries7, 1);
  auto blob = encode_bitstream(design, lf::Architecture::kSeries7);
  // Find the first DSP config payload: tag 4 follows the dsp0 cell header.
  // Rather than pattern-matching offsets, brute-force one byte at a time:
  // flipping any single payload byte either keeps the blob valid or throws
  // PreconditionError — never crashes or mis-parses silently.
  for (std::size_t i = 7; i + 4 < blob.size(); i += 3) {
    auto tweaked = blob;
    tweaked[i] = 7;
    const auto body = std::span<const std::uint8_t>(tweaked)
                          .subspan(0, tweaked.size() - 4);
    const auto crc = lu::crc32(body);
    tweaked[tweaked.size() - 4] = static_cast<std::uint8_t>(crc & 0xff);
    tweaked[tweaked.size() - 3] = static_cast<std::uint8_t>((crc >> 8) & 0xff);
    tweaked[tweaked.size() - 2] =
        static_cast<std::uint8_t>((crc >> 16) & 0xff);
    tweaked[tweaked.size() - 1] =
        static_cast<std::uint8_t>((crc >> 24) & 0xff);
    try {
      lf::decode_bitstream(tweaked);
    } catch (const lu::PreconditionError&) {
      // rejection is the expected failure mode
    }
  }
  SUCCEED();
}
