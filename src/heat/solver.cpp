#include "src/heat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "src/obs/tracer.hpp"
#include "src/util/error.hpp"
#include "src/util/simd/simd.hpp"

namespace greenvis::heat {

HeatSolver::HeatSolver(const HeatProblem& problem, util::ThreadPool* pool)
    : problem_(problem),
      pool_(pool),
      u_(problem.nx, problem.ny, 0.0, pool),
      next_(problem.nx, problem.ny, 0.0, pool),
      rhs_(problem.nx, problem.ny, 0.0, pool) {
  GREENVIS_REQUIRE(problem_.nx >= 3 && problem_.ny >= 3);
  GREENVIS_REQUIRE(problem_.alpha > 0.0 && problem_.dx > 0.0 &&
                   problem_.dt > 0.0);
  GREENVIS_REQUIRE(problem_.executed_sweeps >= 1);
  GREENVIS_REQUIRE(problem_.modeled_sweeps >= 1.0);
  if (problem_.conductivity.size() > 0) {
    GREENVIS_REQUIRE_MSG(problem_.conductivity.nx() == problem_.nx &&
                             problem_.conductivity.ny() == problem_.ny,
                         "conductivity field dimensions must match the grid");
    for (double k : problem_.conductivity.values()) {
      GREENVIS_REQUIRE_MSG(k >= 0.0, "conductivity must be non-negative");
    }
  }
  apply_boundary(u_);
  apply_sources(u_);
}

namespace {

/// Harmonic mean of two cell conductivities: the conductivity of the face
/// between them (0 when either side is a perfect insulator).
double harmonic(double ka, double kb) {
  const double sum = ka + kb;
  return sum > 0.0 ? 2.0 * ka * kb / sum : 0.0;
}

}  // namespace

HeatSolver::Faces HeatSolver::faces(std::size_t i, std::size_t j) const {
  const Field2D& k = problem_.conductivity;
  const double kc = k.at(i, j);
  return {harmonic(kc, k.at(i - 1, j)), harmonic(kc, k.at(i + 1, j)),
          harmonic(kc, k.at(i, j - 1)), harmonic(kc, k.at(i, j + 1))};
}

void HeatSolver::apply_boundary(Field2D& f) const {
  const std::size_t nx = problem_.nx;
  const std::size_t ny = problem_.ny;
  for (std::size_t i = 0; i < nx; ++i) {
    f.at(i, 0) = problem_.boundary_value;
    f.at(i, ny - 1) = problem_.boundary_value;
  }
  for (std::size_t j = 0; j < ny; ++j) {
    f.at(0, j) = problem_.boundary_value;
    f.at(nx - 1, j) = problem_.boundary_value;
  }
}

void HeatSolver::apply_sources(Field2D& f) const {
  for (const HeatSource& s : problem_.sources) {
    const double r2 = s.radius * s.radius;
    for (std::size_t j = 0; j < problem_.ny; ++j) {
      for (std::size_t i = 0; i < problem_.nx; ++i) {
        const double dxs = static_cast<double>(i) - s.cx;
        const double dys = static_cast<double>(j) - s.cy;
        if (dxs * dxs + dys * dys <= r2) {
          f.at(i, j) = s.temperature;
        }
      }
    }
  }
}

double HeatSolver::step() {
  static obs::Histogram& step_us = obs::Registry::global().histogram(
      "heat2d.step_us", obs::duration_us_bounds());
  obs::ScopedSpan span("heat2d.step", obs::kCatHeat, &step_us);
  const std::size_t nx = problem_.nx;
  const std::size_t ny = problem_.ny;
  const double r = problem_.alpha * problem_.dt / (problem_.dx * problem_.dx);
  const double inv_diag = 1.0 / (1.0 + 4.0 * r);
  const bool heterogeneous = problem_.conductivity.size() > 0;

  // The unknowns are the interior cells: rows 1..ny-2, columns 1..nx-2. The
  // edges hold the Dirichlet value.
  const std::size_t j_end = ny - 1;
  const std::size_t i_end = nx - 1;

  // A pool with a single executing thread would run everything inline
  // anyway, but the std::function round trip per dispatch is not free (and
  // may allocate). Call the sweep directly instead — disjoint rows, so the
  // result is identical. Small grids also stay serial: below ~8k unknowns
  // the wake/claim overhead eats the win, and with SIMD rows the per-row
  // work is small enough that each task must carry several rows (grain).
  const std::size_t rows_total = j_end - 1;
  const std::size_t unknowns = rows_total * (i_end - 1);
  const bool use_pool = pool_ != nullptr && pool_->size() > 1 &&
                        rows_total >= 2 * pool_->size() && unknowns >= 8192;
  const std::size_t row_grain = std::max<std::size_t>(1, 4096 / nx);

  constexpr std::size_t kMaxFuse = 12;
  constexpr std::size_t kRingRows = 4;  // power of two >= 3 live rows
  const bool fused =
      !use_pool && !heterogeneous && problem_.executed_sweeps >= 2;

  // Right-hand side: u^n. The fused wavefront copies it row-by-row just
  // ahead of the first sweep level instead of in a separate full-field
  // streaming pass.
  if (!fused) {
    rhs_ = u_;
  }

  Field2D* cur = &u_;
  Field2D* nxt = &next_;

  // Row-pointer-hoisted sweep: the i-loop indexes five flat rows with no
  // per-cell branches, so it autovectorizes. Hoisted once per step: one
  // relaxed atomic load picks the ISA path for every row kernel below.
  const util::simd::KernelTable& kern = util::simd::kernels();

  auto sweep_rows = [&](std::size_t row_begin, std::size_t row_end) {
    const double* rhs = rhs_.values().data();
    const double* u = cur->values().data();
    double* out = nxt->values().data();
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const double* row = u + j * nx;
      const double* row_s = row - nx;
      const double* row_n = row + nx;
      const double* rhs_row = rhs + j * nx;
      double* out_row = out + j * nx;
      if (!heterogeneous) {
        kern.jacobi2d_row(out_row, rhs_row, row, row_s, row_n, r, inv_diag, 1,
                          i_end);
        continue;
      }
      for (std::size_t i = 1; i < i_end; ++i) {
        const Faces f = faces(i, j);
        const double diag = 1.0 + r * (f.w + f.e + f.s + f.n);
        out_row[i] = (rhs_row[i] + r * (f.w * row[i - 1] + f.e * row[i + 1] +
                                        f.s * row_s[i] + f.n * row_n[i])) /
                     diag;
      }
    }
  };

  // Temporal fusion for the serial homogeneous path: a chunk of S sweeps
  // runs as a row wavefront, so `u` and `rhs` stream through DRAM once per
  // chunk instead of once per sweep — at 512^2 the sweep is memory-bound
  // and this, not wider vectors, is where the headroom lives. Level s holds
  // the field after s sweeps of the chunk; levels 1..S-1 live in 4-row
  // rings that stay cache-resident (level s+1 row j needs level s rows
  // j-1..j+1, and a slot is only overwritten 4 rows later), and the final
  // level writes back into the current buffer in place (the write row
  // trails every remaining read of that buffer by at least one row). Every
  // cell sees exactly the same neighbor values and arithmetic as the
  // sweep-at-a-time loop, so the result is bit-identical on every ISA path.
  //
  // The first chunk can additionally stream the rhs copy one row ahead of
  // level 1 (`fold_rhs`), and the last chunk runs the defect scan one row
  // behind the final level (`fold_defect`): same reads, same arithmetic,
  // same row-major order, one DRAM pass instead of three.
  //
  // `alias_rhs` goes one step further when the whole step is a single
  // chunk: rhs IS u^n, and every level's rhs read of row j happens no later
  // than the in-place overwrite of that row (the final level's own read
  // aliases its output block-by-block, load before store), so rhs_ is never
  // materialized at all. The defect scan trails the overwrite frontier, so
  // it reads u^n row j from a 4-row ring saved just before the final level
  // recycles the row.
  auto fused_chunk = [&](std::size_t levels, bool fold_rhs, bool fold_defect,
                         bool alias_rhs) -> double {
    const std::size_t ring_stride = kRingRows * nx;
    const std::size_t need = levels * ring_stride + nx;
    if (fuse_rows_.size() < need) {
      fuse_rows_.resize(need);
    }
    double* const rings = fuse_rows_.data();
    double* const boundary_row = rings + (levels - 1) * ring_stride;
    // Trailing ring of u^n rows for the defect scan in alias_rhs mode.
    double* const saved_rhs = boundary_row + nx;
    double* const cur_data = cur->values().data();
    double* const rhs_data = alias_rhs ? cur_data : rhs_.values().data();
    std::fill(boundary_row, boundary_row + nx, problem_.boundary_value);
    std::size_t copy_next = 0;    // next row of u^n to mirror into rhs_
    std::size_t defect_next = 1;  // next row of the trailing defect scan
    double acc = 0.0;

    // Row of `level` (0 = the live field) at row index j. Edge rows of
    // intermediate levels are never computed; they are the constant
    // boundary row.
    auto level_row = [&](std::size_t level, std::size_t j) -> double* {
      if (level == 0) {
        return cur_data + j * nx;
      }
      if (j == 0 || j + 1 == ny) {
        return boundary_row;
      }
      return rings + (level - 1) * ring_stride + (j & (kRingRows - 1)) * nx;
    };

    auto compute_row = [&](std::size_t s, std::size_t j) {
      const double* rhs_row = rhs_data + j * nx;
      double* out_row = s == levels ? cur_data + j * nx : level_row(s, j);
      if (alias_rhs && s == levels && fold_defect) {
        // This call recycles u^n row j in place; park the original for the
        // trailing defect scan.
        std::memcpy(saved_rhs + (j & (kRingRows - 1)) * nx, rhs_row,
                    nx * sizeof(double));
      }
      kern.jacobi2d_row(out_row, rhs_row, level_row(s - 1, j),
                        level_row(s - 1, j - 1), level_row(s - 1, j + 1), r,
                        inv_diag, 1, i_end);
      // Every target buffer gets its Dirichlet columns refreshed before a
      // sweep reads it — sources may have stamped boundary cells, and the
      // sweep-at-a-time loop erases that via apply_boundary on the
      // ping-pong buffer. Match it on intermediate and final rows alike.
      out_row[0] = problem_.boundary_value;
      out_row[nx - 1] = problem_.boundary_value;
    };

    // Finished-field row for the trailing defect scan. Edge rows read as
    // the constant boundary row — identical to the apply_boundary'd buffer
    // the standalone scan would see.
    auto final_row = [&](std::size_t j) -> const double* {
      if (j == 0 || j + 1 == ny) {
        return boundary_row;
      }
      return cur_data + j * nx;
    };

    auto defect_row = [&](std::size_t j) {
      const double* rhs_row = alias_rhs
                                  ? saved_rhs + (j & (kRingRows - 1)) * nx
                                  : rhs_data + j * nx;
      acc = kern.defect2d_row(rhs_row, final_row(j), final_row(j - 1),
                              final_row(j + 1), r, 1, i_end, acc);
    };

    for (std::size_t t = 1; t < j_end + levels - 1; ++t) {
      if (fold_rhs) {
        // Level 1 reads rhs row t this iteration; stay one row ahead so the
        // copied row is still cache-hot (and read the original field before
        // the in-place final level can reach it).
        for (; copy_next < ny && copy_next <= t + 1; ++copy_next) {
          std::memcpy(rhs_data + copy_next * nx, cur_data + copy_next * nx,
                      nx * sizeof(double));
        }
      }
      for (std::size_t s = 1; s <= levels; ++s) {
        if (t < s) {
          break;  // deeper levels have not started yet
        }
        const std::size_t j = t - (s - 1);
        if (j < j_end) {
          compute_row(s, j);
        }
      }
      if (fold_defect && t >= levels) {
        // Final-level rows up to t-(levels-1) exist; the defect of row r
        // needs rows r-1..r+1, so the scan trails the frontier by one row,
        // in the same row order as the standalone pass.
        const std::size_t frontier = t - (levels - 1);
        for (; defect_next < frontier && defect_next < j_end; ++defect_next) {
          defect_row(defect_next);
        }
      }
    }
    if (fold_rhs) {
      for (; copy_next < ny; ++copy_next) {
        std::memcpy(rhs_data + copy_next * nx, cur_data + copy_next * nx,
                    nx * sizeof(double));
      }
    }
    if (fold_defect) {
      for (; defect_next < j_end; ++defect_next) {
        defect_row(defect_next);
      }
    }
    return acc;
  };

  double fused_residual = 0.0;
  if (fused) {
    std::size_t remaining = problem_.executed_sweeps;
    bool first = true;
    while (remaining > 0) {
      std::size_t levels = std::min(kMaxFuse, remaining);
      if (remaining - levels == 1) {
        --levels;  // never strand a lone sweep: chunks are always >= 2
      }
      const bool last = remaining == levels;
      // One chunk covering the whole step: read u^n straight out of the
      // live field instead of materializing rhs_ at all.
      const bool alias_rhs = first && last;
      fused_residual =
          fused_chunk(levels, first && !alias_rhs, last, alias_rhs);
      // The in-place result must look like a freshly apply_boundary'd
      // ping-pong buffer: boundary rows may still carry stale source stamps
      // that the next chunk (and the defect scan) must not see.
      apply_boundary(*cur);
      remaining -= levels;
      first = false;
    }
  } else {
    for (std::size_t sweep = 0; sweep < problem_.executed_sweeps; ++sweep) {
      // Dirichlet edge values must be visible in the target buffer too.
      apply_boundary(*nxt);
      if (use_pool) {
        pool_->parallel_for(1, j_end, sweep_rows, row_grain);
      } else {
        sweep_rows(1, j_end);
      }
      std::swap(cur, nxt);
    }
    if (cur != &u_) {
      std::swap(u_, next_);
    }
  }

  // Linear-system defect before boundary/source reinforcement.
  auto defect_rows = [&](std::size_t row_begin, std::size_t row_end,
                         double acc) {
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const double* row = u_.values().data() + j * nx;
      const double* row_s = row - nx;
      const double* row_n = row + nx;
      const double* rhs_row = rhs_.values().data() + j * nx;
      if (!heterogeneous) {
        // Max-norm over a row is order-free (NaNs are ignored on every
        // path), so the vector kernel's lane merge is bit-equal.
        acc = kern.defect2d_row(rhs_row, row, row_s, row_n, r, 1, i_end, acc);
        continue;
      }
      for (std::size_t i = 1; i < i_end; ++i) {
        const Faces f = faces(i, j);
        const double defect =
            (1.0 + r * (f.w + f.e + f.s + f.n)) * row[i] -
            r * (f.w * row[i - 1] + f.e * row[i + 1] + f.s * row_s[i] +
                 f.n * row_n[i]) -
            rhs_row[i];
        acc = std::max(acc, std::abs(defect));
      }
    }
    return acc;
  };
  // Max-norm is exact under any combine order, so the serial scan below is
  // bit-equal to the pooled reduction (and vice versa) for every pool size.
  const double residual =
      fused ? fused_residual
      : use_pool
          ? pool_->parallel_reduce(1, j_end, 0.0, defect_rows,
                                   [](double a, double b) {
                                     return std::max(a, b);
                                   })
          : defect_rows(1, j_end, 0.0);

  apply_boundary(u_);
  apply_sources(u_);
  ++steps_;
  if (obs::enabled()) {
    static obs::Counter& cell_updates =
        obs::Registry::global().counter("heat2d.cell_updates");
    cell_updates.add(static_cast<std::uint64_t>(nx * ny) *
                     problem_.executed_sweeps);
  }
  return residual;
}

double HeatSolver::total_heat() const {
  return u_.sum() * problem_.dx * problem_.dx;
}

machine::ActivityRecord HeatSolver::step_activity() const {
  machine::ActivityRecord a;
  const double cells = static_cast<double>((problem_.nx - 2) * (problem_.ny - 2));
  // 6 flops per cell-update: 3 adds for the stencil sum, 1 multiply by r,
  // 1 add of the rhs, 1 multiply by the inverse diagonal.
  a.flops = problem_.modeled_sweeps * cells * 6.0;
  const double bytes_per_sweep =
      static_cast<double>(problem_.nx * problem_.ny) * sizeof(double) * 2.0;
  a.dram_bytes = util::Bytes{static_cast<std::uint64_t>(
      problem_.modeled_sweeps * bytes_per_sweep *
      problem_.dram_traffic_fraction)};
  a.active_cores = problem_.modeled_active_cores;
  a.core_utilization = 1.0;
  return a;
}

void HeatSolver::set_eigenmode(int p, int q, double amplitude) {
  GREENVIS_REQUIRE(p >= 1 && q >= 1);
  const double lx = static_cast<double>(problem_.nx - 1);
  const double ly = static_cast<double>(problem_.ny - 1);
  for (std::size_t j = 0; j < problem_.ny; ++j) {
    for (std::size_t i = 0; i < problem_.nx; ++i) {
      u_.at(i, j) = amplitude *
                    std::sin(std::numbers::pi * p * static_cast<double>(i) / lx) *
                    std::sin(std::numbers::pi * q * static_cast<double>(j) / ly);
    }
  }
  apply_boundary(u_);
}

double HeatSolver::eigenmode_decay(int p, int q) const {
  const double r = problem_.alpha * problem_.dt / (problem_.dx * problem_.dx);
  const double lx = static_cast<double>(problem_.nx - 1);
  const double ly = static_cast<double>(problem_.ny - 1);
  const double sp = std::sin(std::numbers::pi * p / (2.0 * lx));
  const double sq = std::sin(std::numbers::pi * q / (2.0 * ly));
  const double mu = 4.0 * (sp * sp + sq * sq);
  return 1.0 / (1.0 + r * mu);
}

}  // namespace greenvis::heat
