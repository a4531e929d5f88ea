#include "verify/golden.h"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/byte_io.h"
#include "util/sealed_file.h"

namespace leakydsp::verify {

namespace {

constexpr util::SealedFormat kGoldenFormat{{'L', 'D', 'G', 'C'}, 1};

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw GoldenFormatError("golden file " + path + ": " + what);
}

bool value_matches(double actual, double expected, double abs_tol,
                   double rel_tol) {
  if (std::isnan(actual) && std::isnan(expected)) return true;
  if (abs_tol == 0.0 && rel_tol == 0.0) return actual == expected;
  return std::fabs(actual - expected) <=
         abs_tol + rel_tol * std::fabs(expected);
}

}  // namespace

const GoldenEntry* GoldenFile::find(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void save_golden(const std::string& path, const GoldenFile& golden) {
  util::ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(golden.entries.size()));
  for (const auto& e : golden.entries) {
    payload.u32(static_cast<std::uint32_t>(e.name.size()));
    payload.bytes({reinterpret_cast<const std::uint8_t*>(e.name.data()),
                   e.name.size()});
    payload.f64(e.abs_tol);
    payload.f64(e.rel_tol);
    payload.u64(e.values.size());
    for (const double v : e.values) payload.f64(v);
  }

  try {
    util::write_sealed(path, kGoldenFormat, payload.span());
  } catch (const util::SealedFileError& e) {
    throw GoldenFormatError(std::string("golden file ") + e.what());
  }
}

GoldenFile load_golden(const std::string& path) {
  std::vector<std::uint8_t> payload;
  try {
    payload = util::read_sealed(path, kGoldenFormat);
  } catch (const util::SealedFileError& e) {
    throw GoldenFormatError(std::string("golden file ") + e.what());
  }
  try {
    util::ByteReader body(payload);
    GoldenFile golden;
    const std::uint32_t count = body.u32();
    golden.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      GoldenEntry e;
      const std::uint32_t name_len = body.u32();
      e.name.resize(name_len);
      body.bytes({reinterpret_cast<std::uint8_t*>(e.name.data()), name_len});
      e.abs_tol = body.f64();
      e.rel_tol = body.f64();
      const std::uint64_t values = body.u64();
      if (values > body.remaining() / 8) corrupt(path, "value count overrun");
      e.values.resize(static_cast<std::size_t>(values));
      for (auto& v : e.values) v = body.f64();
      golden.entries.push_back(std::move(e));
    }
    if (!body.exhausted()) corrupt(path, "trailing bytes after last entry");
    return golden;
  } catch (const GoldenFormatError&) {
    throw;
  } catch (const util::PreconditionError& e) {
    corrupt(path, e.what());
  }
}

std::vector<std::string> compare_golden(const GoldenFile& expected,
                                        const GoldenFile& actual) {
  std::vector<std::string> mismatches;
  for (const auto& e : expected.entries) {
    const GoldenEntry* a = actual.find(e.name);
    if (a == nullptr) {
      mismatches.push_back("entry '" + e.name + "' missing from actual");
      continue;
    }
    if (a->values.size() != e.values.size()) {
      std::ostringstream oss;
      oss << "entry '" << e.name << "': " << a->values.size()
          << " values, golden has " << e.values.size();
      mismatches.push_back(oss.str());
      continue;
    }
    for (std::size_t i = 0; i < e.values.size(); ++i) {
      if (!value_matches(a->values[i], e.values[i], e.abs_tol, e.rel_tol)) {
        std::ostringstream oss;
        oss.precision(17);
        oss << "entry '" << e.name << "' value " << i << ": actual "
            << a->values[i] << " vs golden " << e.values[i] << " (abs_tol "
            << e.abs_tol << ", rel_tol " << e.rel_tol << ")";
        mismatches.push_back(oss.str());
        break;  // first divergence per entry keeps reports readable
      }
    }
  }
  for (const auto& a : actual.entries) {
    if (expected.find(a.name) == nullptr) {
      mismatches.push_back("unexpected entry '" + a.name +
                           "' not in golden file");
    }
  }
  return mismatches;
}

}  // namespace leakydsp::verify
