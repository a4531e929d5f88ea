// Power delivery network model: a resistive mesh over the die with
// package/regulator pads at fixed locations. Solving the conductance system
// gives the static IR-drop map; network reciprocity turns one solve per
// sensor location into the full spatial transfer-gain vector (droop at the
// sensor per unit current anywhere on the die).
//
// The pad layout is deliberately non-uniform (denser on the bottom and left
// edges), reproducing the paper's observation that sensitivity depends on
// placement "due to the non-uniformity of the PDN across the FPGA board",
// including the counter-intuitive effect that the best attack placement is
// not always the nearest one (Fig. 5).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fabric/device.h"
#include "fabric/geometry.h"
#include "pdn/solver.h"
#include "pdn/sparse.h"

namespace leakydsp::fabric {
struct PadSpec;
}

namespace leakydsp::pdn {

/// Electrical and layout parameters of the PDN mesh.
struct PdnParams {
  int node_pitch = 4;  ///< die sites per mesh node (each axis)
  double vnom = 1.0;   ///< nominal supply [V]

  double neighbor_conductance = 400.0;  ///< mesh link conductance [S]
  double pad_conductance = 40.0;        ///< pad-to-regulator conductance [S]
  /// Bottom-edge pads are stronger by this factor (board regulator sits
  /// below the die): the stiff zone that depresses nearby sensor gains —
  /// chosen so the placement closest to the victim is *not* the best one
  /// (the Fig. 5 observation).
  double bottom_pad_boost = 2.5;

  // Pad placement: pads sit on the top and bottom node rows with the given
  // column strides, plus one full column of pads near the left edge. The
  // bottom edge is denser than the top — the asymmetry that makes placement
  // matter.
  int bottom_pad_stride = 2;
  int top_pad_stride = 5;
  int left_pad_node_column = 1;

  /// Which solver backs dc_droop / transfer_gains. kAuto picks IC(0) PCG,
  /// switching to the two-grid hierarchy at `two_grid_threshold` nodes;
  /// kReferenceCg forces the plain Jacobi-CG differential reference.
  SolverKind solver = SolverKind::kAuto;
  /// Node count at which kAuto switches from IC(0) PCG to two-grid.
  std::size_t two_grid_threshold = 16384;
};

/// PdnParams with the pad-placement fields (node pitch, edge strides,
/// left pad column) taken from a generated device's fabric::PadSpec and
/// everything else from `base` — how placement sweeps build the mesh a
/// DeviceSpec describes. The spec side lives in fabric (which cannot
/// depend on pdn), so the mapping lives here.
PdnParams params_from_pad_spec(const fabric::PadSpec& pads,
                               PdnParams base = {});

/// A current draw at one mesh node [normalized current units].
struct CurrentInjection {
  std::size_t node = 0;
  double current = 0.0;
};

/// The assembled PDN mesh for one device.
class PdnGrid {
 public:
  PdnGrid(const fabric::Device& device, PdnParams params = {});

  /// Builds a mesh with explicit node dimensions (tests and benches that
  /// sweep grid shapes without fabricating a Device).
  PdnGrid(int nodes_x, int nodes_y, PdnParams params = {});

  const PdnParams& params() const { return params_; }
  std::size_t node_count() const { return static_cast<std::size_t>(nx_) * ny_; }
  int nodes_x() const { return nx_; }
  int nodes_y() const { return ny_; }

  /// Mesh node covering a die site.
  std::size_t node_of_site(fabric::SiteCoord site) const;

  /// Node index from mesh coordinates.
  std::size_t node_index(int ix, int iy) const;

  /// Whether a pad (regulator connection) sits at this node.
  bool is_pad(std::size_t node) const;
  /// Number of pad nodes (counted once at construction).
  std::size_t pad_count() const { return pad_count_; }

  /// Static IR-drop at every node for the given current draws: solves
  /// G d = I. Positive droop means the local supply sags below vnom.
  std::vector<double> dc_droop(std::span<const CurrentInjection> draws) const;

  /// dc_droop into caller-owned storage. With `warm_start` true, `droop`'s
  /// incoming contents seed the iteration — repeated solves against slowly
  /// varying draw maps converge in a fraction of the cold iteration count.
  /// Returns the solve diagnostics.
  CgResult dc_droop_into(std::span<const CurrentInjection> draws,
                         std::span<double> droop,
                         bool warm_start = false) const;

  /// Transfer gains for a sensor at `sensor_node`: entry j is the droop at
  /// the sensor per unit current drawn at node j [V per unit current]. One
  /// CG solve via reciprocity (G is symmetric, so column = row).
  std::vector<double> transfer_gains(std::size_t sensor_node) const;

  /// Read-only access to the conductance matrix (frozen).
  const SparseMatrix& conductance() const { return g_; }

  /// The cached solver setup backing this grid's solves (shared across
  /// every grid with the identical topology via the process-wide cache).
  const SolverContext& solver_context() const { return *ctx_; }

  /// The topology identity this grid's setup is cached under.
  const TopologyKey& topology_key() const { return key_; }

 private:
  PdnParams params_;
  int nx_;
  int ny_;
  std::vector<bool> pad_;
  std::size_t pad_count_ = 0;
  SparseMatrix g_;
  TopologyKey key_;
  std::shared_ptr<const SolverContext> ctx_;
};

}  // namespace leakydsp::pdn
