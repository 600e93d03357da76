// Dirichlet heat balance for the heat-solver tests.
//
// Summed over the interior, the backward-Euler stencil cancels on every
// interior face, so over one step with no sources the heat the interior
// gains is r times the flux through its boundary faces:
//
//   sum_interior (u^{n+1} - u^n) = r * sum_boundary_faces w (u_b - u_adj)
//
// with u_b the Dirichlet value, u_adj the interior cell beside it at step
// n+1 and w the face conductivity (1, or the harmonic mean of the two
// cells). A solve converged to max-norm defect `residual` leaves at most
// that much per interior cell, so the two sides may differ by
// interior_cells * residual (plus rounding, 1e-9 of the interior heat).
// This is the exact check that the 5-point and 7-point stencils lose no
// heat.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "src/heat/solver.hpp"
#include "src/heat/solver3d.hpp"

namespace greenvis::heat {

struct HeatBalance {
  double gained{0.0};         // sum_interior (u^{n+1} - u^n)
  double boundary_flux{0.0};  // r * sum_boundary_faces w (u_b - u_adj)
  double tolerance{0.0};      // cells * residual + 1e-9 * sum_interior |u^n|
  double residual{0.0};       // what step() returned
};

inline double harmonic_face(double ka, double kb) {
  const double sum = ka + kb;
  return sum > 0.0 ? 2.0 * ka * kb / sum : 0.0;
}

/// Advance `solver` one step and tally both sides of the balance.
inline HeatBalance step_heat_balance(HeatSolver& solver) {
  const HeatProblem& p = solver.problem();
  const util::Field2D before = solver.temperature();
  HeatBalance b;
  b.residual = solver.step();
  const util::Field2D& u = solver.temperature();
  const bool het = p.conductivity.size() > 0;
  const double r = p.alpha * p.dt / (p.dx * p.dx);
  double heat = 0.0;
  double flux = 0.0;
  for (std::size_t j = 1; j + 1 < p.ny; ++j) {
    for (std::size_t i = 1; i + 1 < p.nx; ++i) {
      b.gained += u.at(i, j) - before.at(i, j);
      heat += std::abs(before.at(i, j));
      const std::size_t nbr[4][2] = {
          {i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}};
      for (const auto& [bi, bj] : nbr) {
        if (bi > 0 && bi + 1 < p.nx && bj > 0 && bj + 1 < p.ny) {
          continue;  // interior face: cancels in the sum
        }
        const double w = het ? harmonic_face(p.conductivity.at(i, j),
                                             p.conductivity.at(bi, bj))
                             : 1.0;
        flux += w * (u.at(bi, bj) - u.at(i, j));
      }
    }
  }
  const double cells = static_cast<double>((p.nx - 2) * (p.ny - 2));
  b.boundary_flux = r * flux;
  b.tolerance = cells * b.residual + 1e-9 * heat;
  return b;
}

inline HeatBalance step_heat_balance(HeatSolver3D& solver) {
  const HeatProblem3D& p = solver.problem();
  const util::Field3D before = solver.temperature();
  HeatBalance b;
  b.residual = solver.step();
  const util::Field3D& u = solver.temperature();
  const double r = p.alpha * p.dt / (p.dx * p.dx);
  auto interior = [&](std::size_t i, std::size_t j, std::size_t k) {
    return i > 0 && i + 1 < p.nx && j > 0 && j + 1 < p.ny && k > 0 &&
           k + 1 < p.nz;
  };
  double heat = 0.0;
  double flux = 0.0;
  for (std::size_t k = 1; k + 1 < p.nz; ++k) {
    for (std::size_t j = 1; j + 1 < p.ny; ++j) {
      for (std::size_t i = 1; i + 1 < p.nx; ++i) {
        b.gained += u.at(i, j, k) - before.at(i, j, k);
        heat += std::abs(before.at(i, j, k));
        const std::size_t nbr[6][3] = {{i - 1, j, k}, {i + 1, j, k},
                                       {i, j - 1, k}, {i, j + 1, k},
                                       {i, j, k - 1}, {i, j, k + 1}};
        for (const auto& [bi, bj, bk] : nbr) {
          if (!interior(bi, bj, bk)) {
            flux += u.at(bi, bj, bk) - u.at(i, j, k);
          }
        }
      }
    }
  }
  const double cells =
      static_cast<double>((p.nx - 2) * (p.ny - 2) * (p.nz - 2));
  b.boundary_flux = r * flux;
  b.tolerance = cells * b.residual + 1e-9 * heat;
  return b;
}

/// The solve converged, the balance holds, and it is not vacuous: heat
/// actually crossed the boundary.
inline void expect_balanced(const HeatBalance& b) {
  EXPECT_LT(b.residual, 1e-6);
  EXPECT_NEAR(b.gained, b.boundary_flux, b.tolerance);
  EXPECT_GT(std::abs(b.boundary_flux), 100.0 * b.tolerance);
}

}  // namespace greenvis::heat
