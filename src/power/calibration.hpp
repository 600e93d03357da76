// Power-model calibration constants.
//
// Every constant here is fitted to a number the paper itself reports; the
// derivations are spelled out so a reviewer can trace each value back to a
// table or figure:
//
//  * Full-system idle ~103 W: Table III's random-read test runs at 107 W
//    while nearly everything waits on the disk (disk dynamic 2.5 W, one
//    mostly-blocked core), so the floor is ~103-104 W. The floor splits into
//    package idle (2 sockets x 16 W — typical RAPL package idle for Sandy
//    Bridge EP), DRAM background/refresh 6 W, disk spindle 4 W, and a 61 W
//    rest-of-system constant (motherboard, fans, PSU loss).
//  * Core active power 2.8 W/core at 2.4 GHz: the simulation phase runs all
//    16 cores and the paper's profiles peak near 150 W system
//    (Figs. 5, 9): 32 + 16*2.8 = 76.8 W package + DRAM + disk idle + rest
//    ~ 152 W.
//  * DRAM 0.35 W per GB/s of traffic: puts the simulation phase's DRAM draw
//    at ~10 W, matching the low DRAM curves of Fig. 5.
//  * Disk phase powers: sequential-read transfer 13.5 W and sequential-write
//    transfer 10.9 W are Table III's disk dynamic powers verbatim; seek
//    8.0 W and rotate-wait 1.5 W are fitted so the random-read test lands at
//    Table III's 2.5 W dynamic and the app's sync-write stage near
//    Table II's ~10 W dynamic.
//  * Sync-I/O stages keep ~3 cores half-busy (application + block layer +
//    journal thread), reproducing Table II's nnread/nnwrite totals of
//    ~115 W.
//
// DVFS: core dynamic power scales (f/f_nom)^3 (see machine/dvfs.hpp).
#pragma once

#include "src/util/units.hpp"

namespace greenvis::power {

using util::Watts;

struct CpuPowerParams {
  /// Both packages idle (uncore, caches, fabric), at any P-state.
  Watts package_idle{32.0};
  /// Per fully-busy core at the nominal frequency.
  Watts core_active{2.8};
  /// Portion of package idle attributed to uncore (PKG - PP0 at idle).
  Watts uncore_share{18.0};
  double nominal_ghz{2.4};
};

struct DramPowerParams {
  /// Background + refresh for 4x 16 GB DDR3 DIMMs.
  Watts idle{6.0};
  /// Incremental watts per GB/s of achieved traffic.
  double watts_per_gbs{0.35};
};

/// Per-device disk power: idle plus per-mechanical-phase active powers,
/// weighted by the phase duty cycle within the sampling window.
struct DiskPowerParams {
  Watts idle{4.0};
  Watts seek{8.0};
  Watts rotate_wait{1.5};
  Watts read_transfer{13.5};
  Watts write_transfer{10.9};
  Watts flush{10.9};
};

/// HDD constants above; SSD/NVRAM draw far less.
[[nodiscard]] inline DiskPowerParams hdd_power_params() {
  return DiskPowerParams{};
}
[[nodiscard]] inline DiskPowerParams ssd_power_params() {
  return DiskPowerParams{Watts{1.2}, Watts{0.0}, Watts{0.0}, Watts{2.8},
                         Watts{3.6}, Watts{3.6}};
}
[[nodiscard]] inline DiskPowerParams nvram_power_params() {
  return DiskPowerParams{Watts{0.6}, Watts{0.0}, Watts{0.0}, Watts{1.4},
                         Watts{2.2}, Watts{2.2}};
}

struct RestOfSystemParams {
  /// Motherboard, fans, NIC, PSU conversion loss — constant.
  Watts constant{61.0};
};

struct PowerCalibration {
  CpuPowerParams cpu{};
  DramPowerParams dram{};
  RestOfSystemParams rest{};
};

}  // namespace greenvis::power
