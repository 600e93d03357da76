// Paper-conformance suite: the reproduction's headline numbers as named,
// machine-checked invariants.
//
// Each invariant is a quantity computed from *real* core::Experiment runs
// (full paper scale — 50 iterations, 128x128 grid, 512x512 frames) plus the
// band it must land in to still have the paper's shape:
//
//   * Fig. 10 — in-situ energy savings ordered case 1 > 2 > 3, each within
//     a band around the paper's 43% / 30% / 18%;
//   * Fig. 5  — post-processing shows exactly two power phases (detected
//     via the Timeline's Write/Read split), in-situ shows one; the
//     sim+write and read+vis phase powers bracket the paper's ~143 W /
//     ~121 W two-level profile;
//   * Fig. 8  — in-situ average power is *higher* (the savings come from
//     time, not power);
//   * Fig. 9  — peak power is indistinguishable between pipelines;
//   * Table II — the static (avoided-idle) share of the savings dominates
//     (>= 85%, paper reports ~91%).
//
// `greenvis verify` and the cli_verify_smoke test evaluate the suite and
// emit QA_conformance.json; tests/conformance_test.cpp runs it in ctest
// under the `conformance` label. Any optimization that silently changes
// what the system computes (an over-eager codec tolerance, a broken cache
// model, a solver that stopped doing the work) leaves its band.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "src/codec/field_codec.hpp"
#include "src/power/trace.hpp"
#include "src/qa/oracle.hpp"
#include "src/trace/timeline.hpp"

namespace greenvis::qa {

struct Invariant {
  std::string name;
  std::string description;
  double value{0.0};
  double lo{0.0};
  double hi{0.0};
  bool pass{false};
};

struct ConformanceReport {
  std::vector<Invariant> invariants;
  /// Oracle results included in the JSON artifact (may be empty when the
  /// caller runs oracles separately).
  std::vector<OracleResult> oracles;

  [[nodiscard]] bool all_pass() const;
  [[nodiscard]] std::size_t failures() const;
  /// QA_conformance.json: schema, verdict, one record per invariant/oracle.
  void write_json(std::ostream& os) const;
};

struct ConformanceOptions {
  /// Snapshot codec used by the post-processing pipeline. The default (raw)
  /// is the paper configuration; setting an absurd delta tolerance is the
  /// sanctioned way to prove the suite actually bites.
  codec::CodecConfig snapshot_codec{};
  /// Annotated into the JSON artifact.
  std::string build_label{"default"};
};

/// Count distinct power phases: splits the trace at the end of the last
/// Write interval (the sync/drop_caches boundary between the paper's two
/// phases) and reports 2 when the mean system power on the two sides
/// differs by more than `min_delta_w`, 1 otherwise. A timeline with no
/// Write intervals (in-situ) always reports 1.
[[nodiscard]] int detect_power_phases(const power::PowerTrace& trace,
                                      const trace::Timeline& timeline,
                                      double min_delta_w = 8.0);

/// Evaluate every paper invariant from fresh Experiment runs.
[[nodiscard]] ConformanceReport run_conformance(
    const ConformanceOptions& options = {});

}  // namespace greenvis::qa
