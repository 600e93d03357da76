// 3-D heat-conduction solver — the volume-data producer for the volume
// rendering path (the paper's reference workloads visualize 3-D simulation
// data). Same scheme as the 2-D solver: backward Euler with a 7-point
// stencil, damped-Jacobi sweeps on double-buffered fields, threaded over
// z-slabs.
#pragma once

#include <vector>

#include "src/machine/activity.hpp"
#include "src/util/field3d.hpp"
#include "src/util/thread_pool.hpp"

namespace greenvis::heat {

struct HeatSource3D {
  double cx{0.0}, cy{0.0}, cz{0.0};
  double radius{0.0};
  double temperature{0.0};
};

struct HeatProblem3D {
  std::size_t nx{64};
  std::size_t ny{64};
  std::size_t nz{64};
  double alpha{1.0};
  double dx{1.0};
  double dt{0.25};
  /// Dirichlet value on all faces.
  double boundary_value{0.0};
  std::vector<HeatSource3D> sources;
  std::size_t executed_sweeps{30};
  /// Testbed-calibrated sweep count. The plain-Jacobi convergence bound
  /// scales with n^2: 2 (n/pi)^2 ln(1/eps) ~ 1.7e4 for n = 64, eps = 1e-8
  /// (vs 6.9e4 for the 2-D proxy's n = 128).
  double modeled_sweeps{17000.0};
  std::size_t modeled_active_cores{16};
  double dram_traffic_fraction{0.6};  // 2 MiB/sweep streams past the LLC
};

class HeatSolver3D {
 public:
  HeatSolver3D(const HeatProblem3D& problem, util::ThreadPool* pool);

  /// Advance one timestep; returns the final linear-system residual.
  double step();

  [[nodiscard]] const util::Field3D& temperature() const { return u_; }
  [[nodiscard]] util::Field3D& temperature() { return u_; }
  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] const HeatProblem3D& problem() const { return problem_; }

  [[nodiscard]] double total_heat() const;
  [[nodiscard]] machine::ActivityRecord step_activity() const;

  /// Dirichlet eigenmode helpers (validation).
  void set_eigenmode(int p, int q, int r, double amplitude);
  [[nodiscard]] double eigenmode_decay(int p, int q, int r) const;

 private:
  void apply_boundary(util::Field3D& f) const;
  void apply_sources(util::Field3D& f) const;

  HeatProblem3D problem_;
  util::ThreadPool* pool_;
  util::Field3D u_;
  util::Field3D next_;
  util::Field3D rhs_;
  int steps_{0};
};

}  // namespace greenvis::heat
