// Plays the cloud provider: audits tenant designs with the deployed
// bitstream checks (combinational loops, latches, long vertical carry
// chains, optional static timing) and with the paper's proposed DSP
// configuration rule, printing each violation the scanner finds.
//
//   $ ./example_bitstream_audit
#include <iostream>

#include "fabric/bitstream.h"
#include "fabric/bitstream_checker.h"
#include "fabric/netlist_builders.h"
#include "util/cli.h"
#include "util/table.h"

using namespace leakydsp;

namespace {

void audit(const std::string& name, const fabric::Netlist& design,
           const fabric::CheckPolicy& policy) {
  const auto report = audit_bitstream(design, policy);
  std::cout << name << " (" << design.cell_count() << " cells): "
            << (report.accepted() ? "ACCEPTED" : "REJECTED") << "\n";
  for (const auto& v : report.violations) {
    std::cout << "    [" << v.rule << "] " << v.detail << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {});  // takes no options; answers --help
  const auto leaky =
      fabric::build_leakydsp_netlist(fabric::Architecture::kSeries7, 3);
  const auto tdc = fabric::build_tdc_netlist(32, /*column=*/5, /*row=*/0);
  const auto ro = fabric::build_ro_netlist(128);

  std::cout << "=== Deployed provider checks (AWS-F1-style) ===\n\n";
  const auto deployed = fabric::CheckPolicy::deployed();
  audit("RO power virus / sensor", ro, deployed);
  audit("TDC sensor", tdc, deployed);
  audit("LeakyDSP sensor", leaky, deployed);

  std::cout << "\n=== With the paper's proposed DSP rule ===\n\n";
  const auto proposed = fabric::CheckPolicy::with_dsp_rule();
  audit("LeakyDSP sensor", leaky, proposed);
  {
    // A benign DSP design: fully pipelined multiply-accumulate.
    fabric::Netlist macc;
    const auto in = macc.add_cell(fabric::CellType::kPort, "samples_in");
    const auto dsp = macc.add_cell(
        fabric::CellType::kDsp48, "fir_macc",
        fabric::Dsp48Config::pipelined_macc(fabric::Architecture::kSeries7));
    macc.connect(in, dsp);
    audit("benign FIR MACC", macc, proposed);
  }

  std::cout << "\n=== Static timing rule and its bypass ===\n\n";
  fabric::CheckPolicy honest = fabric::CheckPolicy::deployed();
  honest.declared_clock_period_ns = 3.333;  // true 300 MHz capture clock
  audit("LeakyDSP, honest 300 MHz constraint", leaky, honest);
  fabric::CheckPolicy bypass = fabric::CheckPolicy::deployed();
  bypass.declared_clock_period_ns = 100.0;  // declared slow clock
  audit("LeakyDSP, declared 10 MHz (programmable-clock bypass)", leaky,
        bypass);

  std::cout << "\n=== The actual trust boundary: serialized bitstreams ===\n\n";
  {
    // The provider never sees a Netlist object — it receives an opaque
    // blob, parses it, then audits. Same verdicts, CRC-protected framing.
    const auto blob =
        encode_bitstream(leaky, fabric::Architecture::kSeries7);
    std::cout << "LeakyDSP serializes to " << blob.size()
              << " bytes; provider-side parse + audit: "
              << (audit_bitstream_blob(blob, fabric::CheckPolicy::deployed())
                          .accepted()
                      ? "ACCEPTED"
                      : "REJECTED")
              << " (deployed rules), "
              << (audit_bitstream_blob(blob,
                                       fabric::CheckPolicy::with_dsp_rule())
                          .accepted()
                      ? "ACCEPTED"
                      : "REJECTED")
              << " (with the proposed DSP rule)\n";
    auto corrupted = blob;
    corrupted[10] ^= 0xff;
    try {
      audit_bitstream_blob(corrupted, fabric::CheckPolicy::deployed());
      std::cout << "corrupted blob: unexpectedly accepted?!\n";
    } catch (const std::exception& e) {
      std::cout << "corrupted blob: rejected before any rule ran ("
                << e.what() << ")\n";
    }
  }

  std::cout << "\nConclusion (paper Section V): deployed structure checks "
               "catch RO and TDC but not LeakyDSP;\nonly a DSP-specific "
               "rule does, and static timing rules are bypassable.\n";
  return 0;
}
