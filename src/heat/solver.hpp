// The proxy heat-transfer simulation.
//
// A 2-D heat-conduction solve on a structured grid (the paper's proxy app,
// after Reddy & Gartling's finite-element heat transfer text [4] — we use
// the equivalent 5-point finite-difference discretization). Each timestep
// advances the backward-Euler system
//
//     (I - r L) u^{n+1} = u^n ,   r = alpha dt / dx^2,
//
// with damped-Jacobi sweeps on a double-buffered grid, parallelized across
// the thread pool exactly like the 16-thread testbed app. The default grid
// is 128x128 doubles = 128 KB, matching Sec. IV-C.
//
// Host-executed vs modeled work: we run enough Jacobi sweeps to converge our
// (moderately stiff) systems; the testbed's convergence-bound plain-Jacobi
// solve performed ~6.9e4 sweeps per step (the classical bound
// 2 (n/pi)^2 ln(1/eps) for n = 128, eps = 1e-8). The activity record charges
// the cost model with the testbed's sweep count so virtual stage durations
// match Fig. 4; numerical results come from the sweeps actually executed.
// See DESIGN.md, "Substitutions".
#pragma once

#include <cstddef>
#include <vector>

#include "src/machine/activity.hpp"
#include "src/util/field.hpp"
#include "src/util/thread_pool.hpp"

namespace greenvis::heat {

using util::Field2D;

/// A circular region held at a fixed temperature (a heat source/sink).
struct HeatSource {
  double cx{0.0};
  double cy{0.0};
  double radius{0.0};
  double temperature{0.0};
};

struct HeatProblem {
  std::size_t nx{128};
  std::size_t ny{128};
  double alpha{1.0};  // thermal diffusivity
  double dx{1.0};     // grid spacing
  double dt{0.25};    // timestep (r = alpha dt / dx^2)
  /// Dirichlet temperature held on all four edges.
  double boundary_value{0.0};
  std::vector<HeatSource> sources;
  /// Optional heterogeneous relative conductivity per cell (empty = uniform
  /// 1.0). Face conductivities are harmonic means of the adjacent cells, so
  /// a zero-conductivity cell is a perfect insulator. Dimensions must match
  /// nx x ny.
  Field2D conductivity;
  /// Jacobi sweeps executed per step on the host (converges for moderate r).
  std::size_t executed_sweeps{40};
  /// Sweeps the testbed's convergence-bound plain-Jacobi solver performs —
  /// what the cost model is charged with.
  double modeled_sweeps{69000.0};
  /// Threads the testbed app runs (all 16 cores of the node).
  std::size_t modeled_active_cores{16};
  /// Fraction of sweep traffic that misses the LLC and reaches DRAM
  /// (the 128 KB grid is LLC-resident; evictions and cross-socket snoops
  /// still leak a share).
  double dram_traffic_fraction{0.3};
};

class HeatSolver {
 public:
  /// `pool` may be shared; pass nullptr for serial execution.
  HeatSolver(const HeatProblem& problem, util::ThreadPool* pool);

  /// Advance one timestep. Returns the final Jacobi residual (max-norm of
  /// the linear-system defect).
  double step();

  [[nodiscard]] const Field2D& temperature() const { return u_; }
  [[nodiscard]] Field2D& temperature() { return u_; }
  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] const HeatProblem& problem() const { return problem_; }

  /// Total heat content (sum of cell temperatures x cell area).
  [[nodiscard]] double total_heat() const;

  /// Machine-visible work of one timestep (modeled sweep count; see header
  /// comment).
  [[nodiscard]] machine::ActivityRecord step_activity() const;

  /// Set a smooth initial condition: the (p,q) Dirichlet eigenmode. Useful
  /// for analytic validation.
  void set_eigenmode(int p, int q, double amplitude);
  /// Discrete per-step backward-Euler decay factor of the (p,q) eigenmode
  /// (the exact answer `step()` must reproduce once converged):
  /// 1 / (1 + r mu).
  [[nodiscard]] double eigenmode_decay(int p, int q) const;

 private:
  void apply_boundary(Field2D& f) const;
  void apply_sources(Field2D& f) const;
  /// Harmonic-mean conductivities of the west, east, south and north faces
  /// of interior cell (i, j) (heterogeneous problems only).
  struct Faces {
    double w, e, s, n;
  };
  [[nodiscard]] Faces faces(std::size_t i, std::size_t j) const;

  HeatProblem problem_;
  util::ThreadPool* pool_;
  Field2D u_;
  Field2D next_;
  Field2D rhs_;
  /// Ring-row scratch for the temporally fused sweep wavefront (lazily
  /// sized; cache-resident by construction).
  std::vector<double> fuse_rows_;
  int steps_{0};
};

}  // namespace greenvis::heat
