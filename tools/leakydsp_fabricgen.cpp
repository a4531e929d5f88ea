// leakydsp_fabricgen: expands a parametric DeviceSpec into a floorplan
// summary, the canonical spec JSON, and (optionally) a demo tenant XDC
// with a placed LeakyDSP cascade — the command-line face of the fabric
// generator.
//
//   leakydsp_fabricgen --board basys3                 # named spec summary
//   leakydsp_fabricgen --spec die.json                # JSON spec summary
//   leakydsp_fabricgen --board aws_f1 --json          # canonical spec JSON
//   leakydsp_fabricgen --spec die.json --xdc --cascade 4
//       # tenant pblock + placed-cascade LOC constraints on stdout
//
// The --xdc demo audits the cascade placement through the placement-aware
// netlist builder first, so an unplaceable site fails with the typed
// FabricError instead of emitting broken constraints.
//
// Exit status: 0 = ok, 1 = spec/placement error, 2 = usage error.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/device_spec.h"
#include "fabric/geometry.h"
#include "fabric/netlist_builders.h"
#include "fabric/pblock.h"
#include "fabric/xdc_export.h"
#include "util/cli.h"

using namespace leakydsp;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fabric::DeviceSpec named_spec(const std::string& board) {
  if (board == "basys3") return fabric::basys3_spec();
  if (board == "axu3egb") return fabric::axu3egb_spec();
  if (board == "aws_f1") return fabric::aws_f1_spec();
  throw std::runtime_error("unknown --board '" + board +
                           "' (basys3, axu3egb, aws_f1)");
}

const char* type_name(fabric::SiteType type) {
  switch (type) {
    case fabric::SiteType::kClb: return "CLB";
    case fabric::SiteType::kDsp: return "DSP";
    case fabric::SiteType::kBram: return "BRAM";
    case fabric::SiteType::kIo: return "IO";
  }
  return "?";
}

void print_summary(const fabric::DeviceSpec& spec,
                   const fabric::Device& device) {
  std::cout << "device: " << device.name() << "\n"
            << "arch:   "
            << (spec.arch == fabric::Architecture::kSeries7 ? "7-series"
                                                            : "ultrascale+")
            << "\n"
            << "die:    " << device.width() << " x " << device.height()
            << " sites, " << spec.region_cols << " x " << spec.region_rows
            << " clock regions\n";
  const auto column_types = fabric::resolve_column_types(spec);
  for (const fabric::SiteType type :
       {fabric::SiteType::kClb, fabric::SiteType::kDsp,
        fabric::SiteType::kBram, fabric::SiteType::kIo}) {
    std::size_t columns = 0;
    for (const fabric::SiteType t : column_types) {
      if (t == type) ++columns;
    }
    std::cout << "  " << type_name(type) << ": " << columns << " columns, "
              << device.total_sites(type) << " sites\n";
  }
  std::cout << "pads:   pitch " << spec.pads.node_pitch << ", bottom/"
            << spec.pads.bottom_stride << " top/" << spec.pads.top_stride
            << " left@" << spec.pads.left_column << "\n";
}

/// Demo tenant: a pblock around the die center plus a LeakyDSP cascade on
/// the first DSP column that fits it, audited through the placement-aware
/// netlist builder before any XDC is emitted.
std::string demo_xdc(const fabric::Device& device, std::size_t cascade) {
  const fabric::SiteCoord center{device.width() / 2, device.height() / 2};
  const auto clbs = fabric::SiteType::kClb;
  std::vector<fabric::SiteCoord> candidates = device.sites_of_type(
      clbs, fabric::Rect{0, 0, device.width() - 1, device.height() - 1});
  if (candidates.empty()) throw fabric::FabricError("die has no CLB sites");
  fabric::SiteCoord victim = candidates.front();
  for (const fabric::SiteCoord site : candidates) {
    if (fabric::distance(site, center) < fabric::distance(victim, center)) {
      victim = site;
    }
  }
  const fabric::Pblock tenant =
      fabric::tenant_pblock(device, "pblock_victim", victim, /*half_span=*/4);

  // First DSP base site (column-major order) whose cascade fits outside
  // the tenant pblock.
  const auto dsps = device.sites_of_type(
      fabric::SiteType::kDsp,
      fabric::Rect{0, 0, device.width() - 1, device.height() - 1});
  for (const fabric::SiteCoord base : dsps) {
    const fabric::Rect footprint{base.x, base.y, base.x,
                                 base.y + static_cast<int>(cascade) - 1};
    if (tenant.range.overlaps(footprint)) continue;
    try {
      (void)fabric::build_leakydsp_netlist(device, base, cascade);
    } catch (const fabric::FabricError&) {
      continue;  // cascade runs off the column; try the next base
    }
    std::vector<fabric::LocConstraint> locs;
    for (std::size_t i = 0; i < cascade; ++i) {
      locs.push_back({"sensor/dsp[" + std::to_string(i) + "]",
                      fabric::SiteType::kDsp,
                      {base.x, base.y + static_cast<int>(i)}});
    }
    return fabric::xdc_file(device, {tenant}, {"victim/*"}, locs);
  }
  throw fabric::FabricError(
      "no DSP column seats a " + std::to_string(cascade) +
      "-deep cascade outside the demo tenant pblock");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv,
                        {"board", "spec", "json!", "xdc!", "cascade"});
    const bool want_json = cli.get_flag("json");
    const bool want_xdc = cli.get_flag("xdc");
    const std::size_t cascade = cli.get_count("cascade", 3, 1);

    fabric::DeviceSpec spec;
    if (cli.has("board") == cli.has("spec")) {
      std::cerr << "usage: leakydsp_fabricgen (--board NAME | --spec FILE) "
                   "[--json] [--xdc] [--cascade N]\n";
      return 2;
    }
    if (cli.has("board")) {
      spec = named_spec(cli.get_string("board", ""));
    } else {
      spec = fabric::parse_device_spec(read_file(cli.get_string("spec", "")));
    }

    const fabric::Device device = fabric::generate_device(spec);
    if (want_json) {
      std::cout << fabric::spec_to_json(spec) << "\n";
    } else if (want_xdc) {
      std::cout << demo_xdc(device, cascade);
    } else {
      print_summary(spec, device);
    }
    return 0;
  } catch (const fabric::FabricError& e) {
    std::cerr << "fabricgen: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fabricgen: " << e.what() << "\n";
    return 2;
  }
}
