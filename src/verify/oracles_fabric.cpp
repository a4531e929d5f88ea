// Generator-invariant and differential oracles of the parametric fabric
// layer:
//   - fabric.spec_invariants: random valid DeviceSpecs through
//     generate_device, checked against a naive per-site re-evaluation of
//     the column rules (first match wins, IO edges strongest, CLB
//     background), exact clock-region partitioning, per-type site-count
//     accounting, typed FabricError on out-of-die / bad-region queries,
//     a non-empty PDN pad set in every clock-region row band of the mesh
//     the spec's PadSpec describes, and that mesh's solver context running
//     the kind resolve() picks (no IC(0) breakdown fallback).
//   - fabric.generated_vs_hardcoded: generate_device over the three named
//     specs vs a frozen replica of the historical hand-built factories,
//     site by site and region by region — the pin that keeps basys3(),
//     axu3egb() and aws_f1() byte-identical to their pre-generator
//     floorplans.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/device_spec.h"
#include "pdn/grid.h"
#include "verify/oracle.h"

namespace leakydsp::verify {

namespace {

// ---------------------------------------------------------------------------
// fabric.spec_invariants

/// Generator parameters, kept factored (band sizes, not die sizes) so the
/// shrink moves stay inside validate_spec's domain by construction.
struct SpecConfig {
  std::int64_t region_cols = 1;
  std::int64_t region_rows = 1;
  std::int64_t col_width = 8;    ///< width = region_cols * col_width
  std::int64_t row_height = 8;   ///< height = region_rows * row_height
  std::int64_t node_pitch = 4;   ///< row_height >= 2 * node_pitch
  std::int64_t bottom_stride = 2;
  std::int64_t top_stride = 5;
  std::int64_t left_column = 0;  ///< < ceil(width / node_pitch)
  bool io_edges = true;
  std::vector<fabric::ColumnRule> rules;
  std::uint64_t seed = 0;
};

fabric::DeviceSpec to_spec(const SpecConfig& c) {
  fabric::DeviceSpec spec;
  spec.name = "generated";
  spec.arch = c.seed % 2 == 0 ? fabric::Architecture::kSeries7
                              : fabric::Architecture::kUltraScalePlus;
  spec.region_cols = static_cast<int>(c.region_cols);
  spec.region_rows = static_cast<int>(c.region_rows);
  spec.width = static_cast<int>(c.region_cols * c.col_width);
  spec.height = static_cast<int>(c.region_rows * c.row_height);
  spec.io_edges = c.io_edges;
  spec.columns = c.rules;
  spec.pads.node_pitch = static_cast<int>(c.node_pitch);
  spec.pads.bottom_stride = static_cast<int>(c.bottom_stride);
  spec.pads.top_stride = static_cast<int>(c.top_stride);
  spec.pads.left_column = static_cast<int>(c.left_column);
  return spec;
}

std::string describe_spec(const SpecConfig& c) {
  const fabric::DeviceSpec spec = to_spec(c);
  std::ostringstream oss;
  oss << "{" << spec.width << "x" << spec.height << " regions "
      << spec.region_cols << "x" << spec.region_rows << " pitch "
      << spec.pads.node_pitch << " strides " << spec.pads.bottom_stride << "/"
      << spec.pads.top_stride << " left " << spec.pads.left_column
      << (spec.io_edges ? " io" : " no-io") << " rules [";
  for (const auto& rule : spec.columns) {
    oss << to_string(rule.type) << "@" << rule.phase << "%" << rule.period
        << " ";
  }
  oss << "] seed=" << c.seed << "}";
  return oss.str();
}

SpecConfig gen_spec_config(util::Rng& rng) {
  SpecConfig c;
  c.region_cols = gen_int(rng, 1, 4);
  c.region_rows = gen_int(rng, 1, 4);
  c.col_width = gen_int(rng, 4, 24);
  c.node_pitch = gen_int(rng, 1, 6);
  c.row_height = gen_int(rng, std::max<std::int64_t>(4, 2 * c.node_pitch),
                         std::max<std::int64_t>(4, 2 * c.node_pitch) + 16);
  c.bottom_stride = gen_int(rng, 1, 5);
  c.top_stride = gen_int(rng, 1, 7);
  const std::int64_t width = c.region_cols * c.col_width;
  const std::int64_t nx =
      (width + c.node_pitch - 1) / c.node_pitch;
  c.left_column = gen_int(rng, 0, nx - 1);
  c.io_edges = gen_int(rng, 0, 1) == 1;
  const std::int64_t n_rules = gen_int(rng, 0, 6);
  for (std::int64_t i = 0; i < n_rules; ++i) {
    fabric::ColumnRule rule;
    rule.type = gen_choice<fabric::SiteType>(
        rng,
        {fabric::SiteType::kDsp, fabric::SiteType::kBram,
         fabric::SiteType::kIo});
    rule.phase = static_cast<int>(gen_int(rng, 0, width - 1));
    rule.period = gen_int(rng, 0, 1) == 0
                      ? 0
                      : static_cast<int>(gen_int(rng, 1, width));
    c.rules.push_back(rule);
  }
  c.seed = rng();
  return c;
}

std::vector<SpecConfig> shrink_spec(const SpecConfig& c) {
  std::vector<SpecConfig> out;
  // Dropping rules first gives the smallest comprehensible failures.
  for (std::size_t i = 0; i < c.rules.size(); ++i) {
    SpecConfig s = c;
    s.rules.erase(s.rules.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(s));
  }
  for (const std::int64_t v : shrink_int(c.region_cols, 1)) {
    SpecConfig s = c;
    s.region_cols = v;
    out.push_back(std::move(s));
  }
  for (const std::int64_t v : shrink_int(c.region_rows, 1)) {
    SpecConfig s = c;
    s.region_rows = v;
    out.push_back(std::move(s));
  }
  for (const std::int64_t v : shrink_int(c.col_width, 4)) {
    SpecConfig s = c;
    s.col_width = v;
    out.push_back(std::move(s));
  }
  for (const std::int64_t v :
       shrink_int(c.row_height, std::max<std::int64_t>(4, 2 * c.node_pitch))) {
    SpecConfig s = c;
    s.row_height = v;
    out.push_back(std::move(s));
  }
  for (const std::int64_t v : shrink_int(c.node_pitch, 1)) {
    SpecConfig s = c;
    s.node_pitch = v;
    out.push_back(std::move(s));
  }
  for (const std::int64_t v : shrink_int(c.left_column, 0)) {
    SpecConfig s = c;
    s.left_column = v;
    out.push_back(std::move(s));
  }
  // Shrunk configs must stay in the generator's domain: phases inside the
  // (possibly smaller) die, left column inside the node row.
  std::vector<SpecConfig> valid;
  for (SpecConfig& s : out) {
    const std::int64_t width = s.region_cols * s.col_width;
    const std::int64_t nx = (width + s.node_pitch - 1) / s.node_pitch;
    if (s.left_column >= nx) continue;
    if (s.row_height < 2 * s.node_pitch) continue;
    const bool phases_ok = std::all_of(
        s.rules.begin(), s.rules.end(),
        [&](const fabric::ColumnRule& rule) { return rule.phase < width; });
    if (!phases_ok) continue;
    valid.push_back(std::move(s));
  }
  return valid;
}

/// Naive reference of the column-rule semantics: IO edges strongest, then
/// the first matching rule in list order, CLB background.
fabric::SiteType naive_column_type(const fabric::DeviceSpec& spec, int x) {
  if (spec.io_edges && (x == 0 || x == spec.width - 1)) {
    return fabric::SiteType::kIo;
  }
  for (const auto& rule : spec.columns) {
    const bool match = rule.period == 0
                           ? x == rule.phase
                           : x >= rule.phase &&
                                 (x - rule.phase) % rule.period == 0;
    if (match) return rule.type;
  }
  return fabric::SiteType::kClb;
}

CheckOutcome check_spec_invariants(const SpecConfig& c) {
  const fabric::DeviceSpec spec = to_spec(c);
  const fabric::Device device = fabric::generate_device(spec);

  if (device.width() != spec.width || device.height() != spec.height ||
      device.architecture() != spec.arch || device.name() != spec.name) {
    return fail("generated device does not echo the spec's identity");
  }

  // Column semantics vs the naive reference, and y-invariance of the
  // column-striped die.
  const std::vector<int> probe_rows = {0, spec.height / 2, spec.height - 1};
  for (int x = 0; x < spec.width; ++x) {
    const fabric::SiteType want = naive_column_type(spec, x);
    for (const int y : probe_rows) {
      const fabric::SiteType got = device.site_type({x, y});
      if (got != want) {
        std::ostringstream oss;
        oss << "site (" << x << "," << y << ") is " << to_string(got)
            << ", naive rule evaluation says " << to_string(want);
        return fail(oss.str());
      }
    }
  }

  // Clock regions: expected tiling arithmetic, exact partition of the die.
  const int region_count = spec.region_cols * spec.region_rows;
  if (static_cast<int>(device.clock_regions().size()) != region_count) {
    return fail("clock-region count mismatch");
  }
  const int rw = spec.width / spec.region_cols;
  const int rh = spec.height / spec.region_rows;
  std::size_t covered = 0;
  for (int row = 0; row < spec.region_rows; ++row) {
    for (int col = 0; col < spec.region_cols; ++col) {
      const int index = row * spec.region_cols + col + 1;
      const fabric::Rect want{col * rw, row * rh, (col + 1) * rw - 1,
                              (row + 1) * rh - 1};
      const fabric::ClockRegion& region = device.clock_region(index);
      if (region.index != index || !(region.bounds == want)) {
        std::ostringstream oss;
        oss << "clock region " << index << " bounds [" << region.bounds.x0
            << "," << region.bounds.y0 << " .. " << region.bounds.x1 << ","
            << region.bounds.y1 << "] do not match the tiling arithmetic";
        return fail(oss.str());
      }
      covered += region.bounds.area();
    }
  }
  for (std::size_t i = 0; i + 1 < device.clock_regions().size(); ++i) {
    for (std::size_t j = i + 1; j < device.clock_regions().size(); ++j) {
      if (device.clock_regions()[i].bounds.overlaps(
              device.clock_regions()[j].bounds)) {
        return fail("clock regions overlap");
      }
    }
  }
  if (covered != static_cast<std::size_t>(spec.width) *
                     static_cast<std::size_t>(spec.height)) {
    return fail("clock regions do not cover the die exactly");
  }

  // Site accounting: the per-type counts partition the die area, and
  // sites_of_type agrees with total_sites on the full die.
  std::size_t total = 0;
  for (const fabric::SiteType type :
       {fabric::SiteType::kClb, fabric::SiteType::kDsp,
        fabric::SiteType::kBram, fabric::SiteType::kIo}) {
    const std::size_t count = device.total_sites(type);
    if (device.sites_of_type(type, device.die()).size() != count) {
      std::ostringstream oss;
      oss << "sites_of_type(" << to_string(type)
          << ") disagrees with total_sites";
      return fail(oss.str());
    }
    total += count;
  }
  if (total != static_cast<std::size_t>(spec.width) *
                   static_cast<std::size_t>(spec.height)) {
    return fail("per-type site counts do not sum to the die area");
  }

  // Typed error paths: out-of-die queries and bad region indices must
  // throw FabricError (not a bare exception).
  try {
    (void)device.site_type({spec.width, 0});
    return fail("site_type outside the die did not throw");
  } catch (const fabric::FabricError&) {
  }
  try {
    (void)device.clock_region(region_count + 1);
    return fail("clock_region past the end did not throw");
  } catch (const fabric::FabricError&) {
  }

  // PDN pads: the mesh the spec's PadSpec describes must have at least
  // one pad in every clock-region row band (the left pad column pads
  // every other node row, and validate_spec pins band height >= 2 node
  // rows).
  const pdn::PdnGrid grid(device, pdn::params_from_pad_spec(spec.pads));
  // The generated mesh is a diagonally dominant M-matrix, so IC(0) exists
  // (Meijerink & van der Vorst 1977): the context must run the kind
  // resolve() picks, never the breakdown fallback.
  const pdn::SolverKind want_kind = pdn::SolverContext::resolve(
      grid.params().solver, grid.nodes_x(), grid.nodes_y(),
      grid.params().two_grid_threshold);
  if (grid.solver_context().resolved_kind() != want_kind) {
    std::ostringstream oss;
    oss << "PDN solver resolved to "
        << pdn::to_string(grid.solver_context().resolved_kind())
        << ", expected " << pdn::to_string(want_kind)
        << " (IC(0) broke down on a generated mesh)";
    return fail(oss.str());
  }
  for (int row = 0; row < spec.region_rows; ++row) {
    const int band_y0 = row * rh;
    const int band_y1 = (row + 1) * rh - 1;
    bool found = false;
    for (int iy = 0; iy < grid.nodes_y() && !found; ++iy) {
      const int node_y0 = iy * spec.pads.node_pitch;
      const int node_y1 = node_y0 + spec.pads.node_pitch - 1;
      if (node_y1 < band_y0 || node_y0 > band_y1) continue;
      for (int ix = 0; ix < grid.nodes_x() && !found; ++ix) {
        found = grid.is_pad(grid.node_index(ix, iy));
      }
    }
    if (!found) {
      std::ostringstream oss;
      oss << "clock-region row band " << row << " (die rows " << band_y0
          << ".." << band_y1 << ") has no PDN pad";
      return fail(oss.str());
    }
  }
  return pass();
}

Property<SpecConfig> spec_invariants_property() {
  Property<SpecConfig> prop;
  prop.name = "fabric.spec_invariants";
  prop.generate = gen_spec_config;
  prop.shrink = shrink_spec;
  prop.describe = describe_spec;
  prop.check = check_spec_invariants;
  return prop;
}

// ---------------------------------------------------------------------------
// fabric.generated_vs_hardcoded

/// Frozen replica of the historical hand-built factories (the pre-generator
/// Device constructor): explicit DSP/BRAM column lists, IO edges, linear
/// scans. Never rewrite this in terms of DeviceSpec — it is the reference.
struct LegacyBoard {
  fabric::Architecture arch;
  const char* name;
  int width;
  int height;
  std::vector<int> dsp_columns;
  std::vector<int> bram_columns;
  int region_cols;
  int region_rows;
};

LegacyBoard legacy_board(int board) {
  switch (board) {
    case 0:
      return {fabric::Architecture::kSeries7, "Basys3 (XC7A35T-like)", 60, 60,
              {16, 36, 52}, {8, 28, 44}, 2, 3};
    case 1:
      return {fabric::Architecture::kUltraScalePlus, "AXU3EGB (ZU3EG-like)",
              84, 72, {14, 34, 54, 74}, {8, 26, 46, 66}, 2, 3};
    default: {
      std::vector<int> dsp;
      for (int x = 14; x < 120; x += 20) dsp.push_back(x);
      std::vector<int> bram;
      for (int x = 8; x < 120; x += 20) bram.push_back(x);
      return {fabric::Architecture::kUltraScalePlus, "AWS F1 (VU9P-like)",
              120, 96, std::move(dsp), std::move(bram), 2, 6};
    }
  }
}

fabric::SiteType legacy_site_type(const LegacyBoard& board,
                                  fabric::SiteCoord p) {
  if (p.x == 0 || p.x == board.width - 1) return fabric::SiteType::kIo;
  if (std::find(board.dsp_columns.begin(), board.dsp_columns.end(), p.x) !=
      board.dsp_columns.end()) {
    return fabric::SiteType::kDsp;
  }
  if (std::find(board.bram_columns.begin(), board.bram_columns.end(), p.x) !=
      board.bram_columns.end()) {
    return fabric::SiteType::kBram;
  }
  return fabric::SiteType::kClb;
}

struct BoardConfig {
  std::int64_t board = 0;  ///< 0 = basys3, 1 = axu3egb, 2 = aws_f1
};

CheckOutcome check_board(const BoardConfig& c) {
  const LegacyBoard legacy = legacy_board(static_cast<int>(c.board));
  const fabric::Device device = c.board == 0   ? fabric::Device::basys3()
                                : c.board == 1 ? fabric::Device::axu3egb()
                                               : fabric::Device::aws_f1();

  if (device.name() != legacy.name || device.architecture() != legacy.arch ||
      device.width() != legacy.width || device.height() != legacy.height) {
    return fail("device identity diverges from the legacy factory");
  }

  for (int x = 0; x < legacy.width; ++x) {
    for (int y = 0; y < legacy.height; ++y) {
      const fabric::SiteType want = legacy_site_type(legacy, {x, y});
      const fabric::SiteType got = device.site_type({x, y});
      if (got != want) {
        std::ostringstream oss;
        oss << legacy.name << " site (" << x << "," << y << ") is "
            << to_string(got) << ", legacy factory says " << to_string(want);
        return fail(oss.str());
      }
    }
  }

  const int rw = legacy.width / legacy.region_cols;
  const int rh = legacy.height / legacy.region_rows;
  if (static_cast<int>(device.clock_regions().size()) !=
      legacy.region_cols * legacy.region_rows) {
    return fail("clock-region count diverges from the legacy factory");
  }
  for (int row = 0; row < legacy.region_rows; ++row) {
    for (int col = 0; col < legacy.region_cols; ++col) {
      const int index = row * legacy.region_cols + col + 1;
      const fabric::Rect want{col * rw, row * rh, (col + 1) * rw - 1,
                              (row + 1) * rh - 1};
      if (!(device.clock_region(index).bounds == want)) {
        std::ostringstream oss;
        oss << legacy.name << " clock region " << index
            << " diverges from the legacy tiling";
        return fail(oss.str());
      }
    }
  }
  return pass();
}

Property<BoardConfig> board_property() {
  Property<BoardConfig> prop;
  prop.name = "fabric.generated_vs_hardcoded";
  prop.generate = [](util::Rng& rng) {
    return BoardConfig{gen_int(rng, 0, 2)};
  };
  prop.shrink = [](const BoardConfig& c) {
    std::vector<BoardConfig> out;
    for (const std::int64_t b : shrink_int(c.board, 0)) out.push_back({b});
    return out;
  };
  prop.describe = [](const BoardConfig& c) {
    std::ostringstream oss;
    oss << "{board=" << c.board << "}";
    return oss.str();
  };
  prop.check = check_board;
  return prop;
}

}  // namespace

void register_fabric_oracles(std::vector<Oracle>& out) {
  out.push_back(make_oracle(
      "generate_device vs naive rule evaluation: site types, region "
      "tiling, site accounting, typed errors, per-band PDN pads, no IC(0) "
      "fallback",
      1, spec_invariants_property()));
  out.push_back(make_oracle(
      "generate_device(named spec) vs frozen legacy factory floorplans, "
      "site by site and region by region",
      1, board_property()));
}

}  // namespace leakydsp::verify
