#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/heat/solver.hpp"
#include "src/util/error.hpp"
#include "src/util/thread_pool.hpp"
#include "tests/heat_balance.hpp"

namespace greenvis::heat {
namespace {

HeatProblem small_problem() {
  HeatProblem p;
  p.nx = 33;
  p.ny = 33;
  p.executed_sweeps = 80;
  return p;
}

TEST(HeatSolver, EigenmodeDecaysAtDiscreteRate) {
  HeatProblem p = small_problem();
  HeatSolver solver(p, nullptr);
  solver.set_eigenmode(1, 1, 1.0);
  const double expected = solver.eigenmode_decay(1, 1);
  const double before = solver.temperature().at(16, 16);
  solver.step();
  const double after = solver.temperature().at(16, 16);
  EXPECT_NEAR(after / before, expected, 1e-6);
}

TEST(HeatSolver, HigherModesDecayFaster) {
  HeatProblem p = small_problem();
  HeatSolver a(p, nullptr), b(p, nullptr);
  EXPECT_LT(a.eigenmode_decay(3, 3), b.eigenmode_decay(1, 1));
}

TEST(HeatSolver, EigenmodeShapePreservedAcrossSteps) {
  HeatProblem p = small_problem();
  HeatSolver solver(p, nullptr);
  solver.set_eigenmode(2, 1, 5.0);
  const util::Field2D initial = solver.temperature();
  for (int s = 0; s < 3; ++s) {
    solver.step();
  }
  const double factor = std::pow(solver.eigenmode_decay(2, 1), 3);
  double max_err = 0.0;
  for (std::size_t j = 1; j + 1 < p.ny; ++j) {
    for (std::size_t i = 1; i + 1 < p.nx; ++i) {
      max_err = std::max(max_err, std::abs(solver.temperature().at(i, j) -
                                           initial.at(i, j) * factor));
    }
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(HeatSolver, DirichletHeatBalanceSerial) {
  // Serial homogeneous: the fused row-wavefront path.
  HeatSolver solver(small_problem(), nullptr);
  // A hot blob against the west edge.
  for (std::size_t j = 2; j < 8; ++j) {
    for (std::size_t i = 1; i < 7; ++i) {
      solver.temperature().at(i, j) = 50.0;
    }
  }
  for (int s = 0; s < 10; ++s) {
    SCOPED_TRACE(s);
    expect_balanced(step_heat_balance(solver));
  }
}

TEST(HeatSolver, DirichletHeatBalancePooled) {
  // 96^2 on four threads clears the pooled path's size cutoff: one sweep
  // and one defect reduction per parallel region.
  HeatProblem p = small_problem();
  p.nx = 96;
  p.ny = 96;
  util::ThreadPool pool(4);
  HeatSolver solver(p, &pool);
  for (std::size_t j = 1; j + 1 < p.ny; ++j) {
    for (std::size_t i = 1; i + 1 < p.nx; ++i) {
      solver.temperature().at(i, j) =
          static_cast<double>((i * 7 + j * 13) % 23);
    }
  }
  for (int s = 0; s < 5; ++s) {
    SCOPED_TRACE(s);
    expect_balanced(step_heat_balance(solver));
  }
}

TEST(HeatSolver, DiffusionSmoothsExtremes) {
  HeatProblem p = small_problem();
  HeatSolver solver(p, nullptr);
  solver.temperature().at(16, 16) = 1000.0;
  const double max_before = solver.temperature().max_value();
  solver.step();
  EXPECT_LT(solver.temperature().max_value(), max_before);
  EXPECT_GT(solver.temperature().min_value(), -1e-12);
}

TEST(HeatSolver, MaximumPrincipleHolds) {
  // With Dirichlet 0 boundaries and a non-negative start, the solution stays
  // within [0, max].
  HeatProblem p = small_problem();
  HeatSolver solver(p, nullptr);
  solver.set_eigenmode(1, 1, 10.0);
  for (int s = 0; s < 5; ++s) {
    solver.step();
    EXPECT_GE(solver.temperature().min_value(), -1e-9);
    EXPECT_LE(solver.temperature().max_value(), 10.0 + 1e-9);
  }
}

TEST(HeatSolver, SourcesHoldTheirTemperature) {
  HeatProblem p = small_problem();
  p.sources = {HeatSource{16.0, 16.0, 2.0, 75.0}};
  HeatSolver solver(p, nullptr);
  for (int s = 0; s < 3; ++s) {
    solver.step();
  }
  EXPECT_DOUBLE_EQ(solver.temperature().at(16, 16), 75.0);
  // Heat leaks outward from the source.
  EXPECT_GT(solver.temperature().at(16, 20), 0.0);
}

TEST(HeatSolver, SteadyStateApproachesLaplaceSolution) {
  // A source held hot in a cold-boundary plate reaches a steady state:
  // successive steps stop changing the field.
  HeatProblem p = small_problem();
  p.sources = {HeatSource{16.0, 16.0, 3.0, 100.0}};
  p.dt = 10.0;  // big steps toward steady state
  p.executed_sweeps = 400;
  HeatSolver solver(p, nullptr);
  for (int s = 0; s < 60; ++s) {
    solver.step();
  }
  const util::Field2D before = solver.temperature();
  solver.step();
  double delta = 0.0;
  for (std::size_t k = 0; k < before.size(); ++k) {
    delta = std::max(delta,
                     std::abs(before.values()[k] -
                              solver.temperature().values()[k]));
  }
  EXPECT_LT(delta, 1e-3);
}

TEST(HeatSolver, ResidualSmallWhenConverged) {
  HeatProblem p = small_problem();
  p.executed_sweeps = 200;
  HeatSolver solver(p, nullptr);
  solver.set_eigenmode(1, 1, 1.0);
  EXPECT_LT(solver.step(), 1e-10);
}

TEST(HeatSolver, ThreadedMatchesSerialExactly) {
  HeatProblem p = small_problem();
  p.sources = {HeatSource{10.0, 20.0, 3.0, 60.0}};
  HeatSolver serial(p, nullptr);
  util::ThreadPool pool(4);
  HeatSolver threaded(p, &pool);
  for (int s = 0; s < 5; ++s) {
    serial.step();
    threaded.step();
  }
  EXPECT_EQ(serial.temperature(), threaded.temperature());
}

TEST(HeatSolver, ActivityChargesModeledSweeps) {
  HeatProblem p;  // defaults: 128x128, 69000 modeled sweeps
  HeatSolver solver(p, nullptr);
  const auto a = solver.step_activity();
  EXPECT_NEAR(a.flops, 69000.0 * 126.0 * 126.0 * 6.0, 1.0);
  EXPECT_EQ(a.active_cores, 16u);
  EXPECT_GT(a.dram_bytes.value(), 0u);
}

TEST(HeatSolver, PaperGridIs128KiB) {
  HeatProblem p;
  HeatSolver solver(p, nullptr);
  EXPECT_EQ(solver.temperature().size() * sizeof(double),
            util::kibibytes(128).value());
}

TEST(HeatSolver, RejectsDegenerateProblems) {
  HeatProblem p;
  p.nx = 2;
  EXPECT_THROW(HeatSolver(p, nullptr), util::ContractViolation);
  HeatProblem q;
  q.dt = 0.0;
  EXPECT_THROW(HeatSolver(q, nullptr), util::ContractViolation);
}

TEST(HeatSolver, BackwardEulerIsFirstOrderInTime) {
  // Integrate one eigenmode to T = 8 with N and 2N steps; the time-stepping
  // error against the semi-discrete exact solution exp(-lambda T) halves.
  auto time_error = [](int steps) {
    HeatProblem p;
    p.nx = 17;
    p.ny = 17;
    p.dt = 8.0 / steps;
    p.executed_sweeps = 200;
    HeatSolver solver(p, nullptr);
    solver.set_eigenmode(1, 1, 1.0);
    for (int s = 0; s < steps; ++s) {
      solver.step();
    }
    const double lx = 16.0;
    const double sp = std::sin(std::numbers::pi / (2.0 * lx));
    const double lambda = 8.0 * sp * sp;  // alpha * mu / dx^2
    const double exact = std::exp(-lambda * 8.0);
    return std::abs(solver.temperature().at(8, 8) /
                        std::sin(std::numbers::pi * 8.0 / lx) /
                        std::sin(std::numbers::pi * 8.0 / lx) -
                    exact);
  };
  EXPECT_NEAR(time_error(8) / time_error(16), 2.0, 0.35);
}

TEST(HeatSolver, UniformConductivityMatchesHomogeneousPath) {
  HeatProblem base = small_problem();
  base.sources = {HeatSource{16.0, 16.0, 2.0, 60.0}};
  HeatProblem uniform = base;
  uniform.conductivity = util::Field2D(base.nx, base.ny, 1.0);
  HeatSolver a(base, nullptr), b(uniform, nullptr);
  for (int s = 0; s < 4; ++s) {
    a.step();
    b.step();
  }
  double max_diff = 0.0;
  for (std::size_t k = 0; k < a.temperature().size(); ++k) {
    max_diff = std::max(max_diff, std::abs(a.temperature().values()[k] -
                                           b.temperature().values()[k]));
  }
  EXPECT_LT(max_diff, 1e-12);
}

TEST(HeatSolver, InsulatingWallBlocksHeat) {
  // Hot source on the left, a zero-conductivity wall down the middle: the
  // right chamber must stay cold while an unwalled plate warms it.
  HeatProblem walled = small_problem();
  walled.sources = {HeatSource{8.0, 16.0, 3.0, 100.0}};
  walled.conductivity = util::Field2D(walled.nx, walled.ny, 1.0);
  for (std::size_t j = 0; j < walled.ny; ++j) {
    walled.conductivity.at(16, j) = 0.0;
  }
  HeatProblem open = walled;
  open.conductivity = util::Field2D(open.nx, open.ny, 1.0);

  HeatSolver with_wall(walled, nullptr), without_wall(open, nullptr);
  for (int s = 0; s < 20; ++s) {
    with_wall.step();
    without_wall.step();
  }
  const double right_walled = with_wall.temperature().at(24, 16);
  const double right_open = without_wall.temperature().at(24, 16);
  EXPECT_LT(right_walled, 1e-9);
  EXPECT_GT(right_open, 1e-3);
  EXPECT_GT(right_open, 1e5 * std::max(right_walled, 1e-300));
}

TEST(HeatSolver, LowConductivitySlowsPropagation) {
  HeatProblem fast = small_problem();
  fast.sources = {HeatSource{16.0, 16.0, 2.0, 100.0}};
  HeatProblem slow = fast;
  slow.conductivity = util::Field2D(slow.nx, slow.ny, 0.05);
  HeatSolver a(fast, nullptr), b(slow, nullptr);
  for (int s = 0; s < 10; ++s) {
    a.step();
    b.step();
  }
  EXPECT_GT(a.temperature().at(16, 24), 2.0 * b.temperature().at(16, 24));
}

TEST(HeatSolver, HeterogeneousDirichletHeatBalance) {
  // Harmonic-mean faces: the per-cell heterogeneous update.
  HeatProblem p = small_problem();
  p.conductivity = util::Field2D(p.nx, p.ny, 1.0);
  // Checkerboard of fast and slow material.
  for (std::size_t j = 0; j < p.ny; ++j) {
    for (std::size_t i = 0; i < p.nx; ++i) {
      p.conductivity.at(i, j) = ((i + j) % 2 == 0) ? 2.5 : 0.3;
    }
  }
  HeatSolver solver(p, nullptr);
  for (std::size_t i = 5; i < 12; ++i) {
    solver.temperature().at(i, 1) = 40.0;
    solver.temperature().at(i, 7) = 40.0;
  }
  for (int s = 0; s < 8; ++s) {
    SCOPED_TRACE(s);
    expect_balanced(step_heat_balance(solver));
  }
}

TEST(HeatSolver, RejectsMismatchedConductivity) {
  HeatProblem p = small_problem();
  p.conductivity = util::Field2D(4, 4, 1.0);
  EXPECT_THROW(HeatSolver(p, nullptr), util::ContractViolation);
  HeatProblem q = small_problem();
  q.conductivity = util::Field2D(q.nx, q.ny, -1.0);
  EXPECT_THROW(HeatSolver(q, nullptr), util::ContractViolation);
}

TEST(HeatSolver, StepCounterAdvances) {
  HeatSolver solver(small_problem(), nullptr);
  EXPECT_EQ(solver.steps_taken(), 0);
  solver.step();
  solver.step();
  EXPECT_EQ(solver.steps_taken(), 2);
}

}  // namespace
}  // namespace greenvis::heat
