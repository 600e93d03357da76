#include "src/heat/solver3d.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"
#include "src/util/simd/simd.hpp"

namespace greenvis::heat {

HeatSolver3D::HeatSolver3D(const HeatProblem3D& problem,
                           util::ThreadPool* pool)
    : problem_(problem),
      pool_(pool),
      u_(problem.nx, problem.ny, problem.nz, 0.0, pool),
      next_(problem.nx, problem.ny, problem.nz, 0.0, pool),
      rhs_(problem.nx, problem.ny, problem.nz, 0.0, pool) {
  GREENVIS_REQUIRE(problem_.nx >= 3 && problem_.ny >= 3 && problem_.nz >= 3);
  GREENVIS_REQUIRE(problem_.alpha > 0.0 && problem_.dx > 0.0 &&
                   problem_.dt > 0.0);
  GREENVIS_REQUIRE(problem_.executed_sweeps >= 1);
  apply_boundary(u_);
  apply_sources(u_);
}

void HeatSolver3D::apply_boundary(util::Field3D& f) const {
  const std::size_t nx = problem_.nx, ny = problem_.ny, nz = problem_.nz;
  const double v = problem_.boundary_value;
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < ny; ++j) {
      f.at(0, j, k) = v;
      f.at(nx - 1, j, k) = v;
    }
    for (std::size_t i = 0; i < nx; ++i) {
      f.at(i, 0, k) = v;
      f.at(i, ny - 1, k) = v;
    }
  }
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      f.at(i, j, 0) = v;
      f.at(i, j, nz - 1) = v;
    }
  }
}

void HeatSolver3D::apply_sources(util::Field3D& f) const {
  for (const HeatSource3D& s : problem_.sources) {
    const double r2 = s.radius * s.radius;
    for (std::size_t k = 0; k < problem_.nz; ++k) {
      for (std::size_t j = 0; j < problem_.ny; ++j) {
        for (std::size_t i = 0; i < problem_.nx; ++i) {
          const double dxs = static_cast<double>(i) - s.cx;
          const double dys = static_cast<double>(j) - s.cy;
          const double dzs = static_cast<double>(k) - s.cz;
          if (dxs * dxs + dys * dys + dzs * dzs <= r2) {
            f.at(i, j, k) = s.temperature;
          }
        }
      }
    }
  }
}

double HeatSolver3D::step() {
  static obs::Histogram& step_us = obs::Registry::global().histogram(
      "heat3d.step_us", obs::duration_us_bounds());
  obs::ScopedSpan span("heat3d.step", obs::kCatHeat, &step_us);
  const std::size_t nx = problem_.nx, ny = problem_.ny, nz = problem_.nz;
  const double r = problem_.alpha * problem_.dt / (problem_.dx * problem_.dx);
  const double inv_diag = 1.0 / (1.0 + 6.0 * r);

  // The unknowns are the interior cells, 1..n-2 on every axis; the faces
  // hold the Dirichlet value.
  rhs_ = u_;
  const std::size_t k_end = nz - 1;
  const std::size_t j_end = ny - 1;
  const std::size_t i_end = nx - 1;

  util::Field3D* cur = &u_;
  util::Field3D* nxt = &next_;

  // Cache-blocked sweep: each k-slab walks j in tiles so the three planes a
  // stencil touches stay LLC-resident across consecutive k, and the i-loop
  // reads seven hoisted flat rows with no per-cell branches.
  constexpr std::size_t kTileJ = 32;
  const std::size_t plane = nx * ny;
  const util::simd::KernelTable& kern = util::simd::kernels();
  auto sweep_slabs = [&](std::size_t k_begin, std::size_t k_stop) {
    const double* rhs = rhs_.values().data();
    const double* u = cur->values().data();
    double* out = nxt->values().data();
    for (std::size_t jj = 1; jj < j_end; jj += kTileJ) {
      const std::size_t jj_end = std::min(j_end, jj + kTileJ);
      for (std::size_t k = k_begin; k < k_stop; ++k) {
        for (std::size_t j = jj; j < jj_end; ++j) {
          const std::size_t base = k * plane + j * nx;
          const double* row = u + base;
          kern.jacobi3d_row(out + base, rhs + base, row, row - nx, row + nx,
                            row - plane, row + plane, r, inv_diag, 1, i_end);
        }
      }
    }
  };

  // Serial below one slab per executor or ~8k unknowns: dispatch overhead
  // would dominate (same policy as the 2-D solver).
  const std::size_t slabs_total = k_end - 1;
  const std::size_t unknowns = slabs_total * (j_end - 1) * (i_end - 1);
  const bool use_pool = pool_ != nullptr && pool_->size() > 1 &&
                        slabs_total >= 2 * pool_->size() && unknowns >= 8192;

  for (std::size_t sweep = 0; sweep < problem_.executed_sweeps; ++sweep) {
    apply_boundary(*nxt);
    if (use_pool) {
      pool_->parallel_for(1, k_end, sweep_slabs);
    } else {
      sweep_slabs(1, k_end);
    }
    std::swap(cur, nxt);
  }
  if (cur != &u_) {
    std::swap(u_, next_);
  }

  // Max-norm is exact under any combine order, so the parallel reduction is
  // bit-equal to the serial scan for every pool size.
  auto defect_slabs = [&](std::size_t k_begin, std::size_t k_stop,
                          double acc) {
    const double* rhs = rhs_.values().data();
    const double* u = u_.values().data();
    for (std::size_t k = k_begin; k < k_stop; ++k) {
      for (std::size_t j = 1; j < j_end; ++j) {
        const std::size_t base = k * plane + j * nx;
        const double* row = u + base;
        acc = kern.defect3d_row(rhs + base, row, row - nx, row + nx,
                                row - plane, row + plane, r, 1, i_end, acc);
      }
    }
    return acc;
  };
  const double residual =
      use_pool ? pool_->parallel_reduce(
                     1, k_end, 0.0, defect_slabs,
                     [](double a, double b) { return std::max(a, b); })
               : defect_slabs(1, k_end, 0.0);

  apply_boundary(u_);
  apply_sources(u_);
  ++steps_;
  if (obs::enabled()) {
    static obs::Counter& cell_updates =
        obs::Registry::global().counter("heat3d.cell_updates");
    cell_updates.add(static_cast<std::uint64_t>(nx * ny * nz) *
                     problem_.executed_sweeps);
  }
  return residual;
}

double HeatSolver3D::total_heat() const {
  return u_.sum() * problem_.dx * problem_.dx * problem_.dx;
}

machine::ActivityRecord HeatSolver3D::step_activity() const {
  machine::ActivityRecord a;
  const double cells = static_cast<double>(
      (problem_.nx - 2) * (problem_.ny - 2) * (problem_.nz - 2));
  // 8 flops per cell-update: 5 adds for the stencil sum, multiply by r,
  // add the rhs, multiply by the inverse diagonal.
  a.flops = problem_.modeled_sweeps * cells * 8.0;
  const double bytes_per_sweep =
      static_cast<double>(problem_.nx * problem_.ny * problem_.nz) *
      sizeof(double) * 2.0;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(
      problem_.modeled_sweeps * bytes_per_sweep *
      problem_.dram_traffic_fraction)};
  a.active_cores = problem_.modeled_active_cores;
  return a;
}

void HeatSolver3D::set_eigenmode(int p, int q, int r, double amplitude) {
  GREENVIS_REQUIRE(p >= 1 && q >= 1 && r >= 1);
  const double lx = static_cast<double>(problem_.nx - 1);
  const double ly = static_cast<double>(problem_.ny - 1);
  const double lz = static_cast<double>(problem_.nz - 1);
  for (std::size_t k = 0; k < problem_.nz; ++k) {
    for (std::size_t j = 0; j < problem_.ny; ++j) {
      for (std::size_t i = 0; i < problem_.nx; ++i) {
        u_.at(i, j, k) =
            amplitude *
            std::sin(std::numbers::pi * p * static_cast<double>(i) / lx) *
            std::sin(std::numbers::pi * q * static_cast<double>(j) / ly) *
            std::sin(std::numbers::pi * r * static_cast<double>(k) / lz);
      }
    }
  }
  apply_boundary(u_);
}

double HeatSolver3D::eigenmode_decay(int p, int q, int r) const {
  const double rr = problem_.alpha * problem_.dt / (problem_.dx * problem_.dx);
  const double lx = static_cast<double>(problem_.nx - 1);
  const double ly = static_cast<double>(problem_.ny - 1);
  const double lz = static_cast<double>(problem_.nz - 1);
  const double sp = std::sin(std::numbers::pi * p / (2.0 * lx));
  const double sq = std::sin(std::numbers::pi * q / (2.0 * ly));
  const double sr = std::sin(std::numbers::pi * r / (2.0 * lz));
  const double mu = 4.0 * (sp * sp + sq * sq + sr * sr);
  return 1.0 / (1.0 + rr * mu);
}

}  // namespace greenvis::heat
