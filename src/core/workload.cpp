#include "src/core/workload.hpp"

#include "src/util/error.hpp"

namespace greenvis::core {

CaseStudyConfig case_study(int n) {
  GREENVIS_REQUIRE(n >= 1 && n <= 3);
  CaseStudyConfig c;
  c.name = "Case Study " + std::to_string(n);
  c.io_period = n == 1 ? 1 : (n == 2 ? 2 : 8);

  // The proxy problem: a cold plate with two fixed-temperature hot spots —
  // simple physics with visually evolving isotherms.
  c.problem.nx = 128;
  c.problem.ny = 128;
  c.problem.boundary_value = 0.0;
  c.problem.sources = {
      heat::HeatSource{40.0, 44.0, 6.0, 100.0},
      heat::HeatSource{90.0, 84.0, 9.0, 60.0},
  };
  // Fixed transfer-function range so every frame is comparable.
  c.vis.range_lo = 0.0;
  c.vis.range_hi = 100.0;
  return c;
}

}  // namespace greenvis::core
