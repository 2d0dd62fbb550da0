// Paper-reported numbers for Tables 1-24 (FLIPS, Middleware 2023), the
// grid that reproduces them, and the reduced-scale calibration every
// preset reads. `flips_tables --scenario <preset>` runs one table pair.
//
// Layout per row: {alpha, party%} setting ×
//   rounds/accuracy for [0% stragglers: Random, FLIPS, OORT, GradCls,
//   TiFL], [10%: FLIPS, OORT, TiFL], [20%: FLIPS, OORT, TiFL].
// Rounds value -1 encodes the paper's ">400" (target never reached).
// Accuracy NaN encodes a cell missing from the published table.
#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <string_view>

#include "common/scenario.h"
#include "selection/factory.h"

namespace flips::bench::paper {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Row settings shared by every table, in paper order.
struct Setting {
  double alpha;
  double party_fraction;
};
inline constexpr std::array<Setting, 4> kSettings{{
    {0.3, 0.20},
    {0.3, 0.15},
    {0.6, 0.20},
    {0.6, 0.15},
}};

struct RoundsRow {
  // 0 % stragglers
  int random, flips, oort, gradcls, tifl;
  // 10 % stragglers
  int flips10, oort10, tifl10;
  // 20 % stragglers
  int flips20, oort20, tifl20;
};

struct AccuracyRow {
  double random, flips, oort, gradcls, tifl;
  double flips10, oort10, tifl10;
  double flips20, oort20, tifl20;
};

struct TablePair {
  const char* dataset;
  const char* algorithm;
  double target_accuracy;  ///< fraction (0.6 or 0.8)
  int paper_round_budget;  ///< 400 (ECG/HAM) or 200 (FEMNIST/Fashion)
  std::array<RoundsRow, 4> rounds;
  std::array<AccuracyRow, 4> accuracy;
};

// ---------------- Reduced-scale calibration ---------------------------
//
// The paper's 400/200-round budgets do not transfer 1:1 to the reduced
// simulation, so each dataset carries a calibrated (target accuracy,
// prototype separation, local lr) triple — the single source the
// scenario presets (and so flips_tables and flips_run) read. The knobs are tuned
// (protocol in EXPERIMENTS.md § "Reduced-target calibration") so that
// rounds-to-target lands in the tens of rounds at the default reduced
// scale — far enough from round 1 that selector orderings are
// discriminative, far enough from the budget that FLIPS reaches it.

struct ReducedCalibration {
  double target_accuracy;   ///< reduced-scale target (fraction)
  /// Class-prototype separation override (0 = catalog default). Lower
  /// values harden the learning problem without touching who holds
  /// which labels.
  double class_separation;
  double local_lr;
  /// Server lr for the ADAPTIVE optimizers (FedYogi etc.; FedAvg is
  /// pinned to 1.0). The adaptive server, not the local solver, is
  /// what drives single-digit convergence — it needs its own knob.
  double server_lr;
};

// ECG and FEMNIST swept 2026-07, HAM and Fashion 2026-08 (protocol +
// grids in EXPERIMENTS.md § "Reduced-target calibration"): FLIPS
// rounds-to-target at the default scale lands at 20/14/20 (ECG
// fedavg/fedyogi/fedprox), 56/16/56 (FEMNIST), 26/14/26 (HAM, with
// random never reaching the target inside the budget) and 18/10/18
// (Fashion) — tens of rounds on every arm, vs 4-10 before.
inline constexpr ReducedCalibration kEcgReduced{0.72, 1.0, 0.03, 0.01};
inline constexpr ReducedCalibration kHamReduced{0.72, 0.8, 0.02, 0.01};
inline constexpr ReducedCalibration kFemnistReduced{0.78, 2.4, 0.03, 0.01};
inline constexpr ReducedCalibration kFashionReduced{0.78, 0.8, 0.02,
                                                    0.01};

// --------------------------- FedYogi ---------------------------------

inline constexpr TablePair kEcgFedYogi{
    "MIT-BIH ECG", "FedYogi", 0.60, 400,
    {{{-1, 157, 373, -1, -1, 193, -1, -1, 192, -1, -1},
      {-1, 172, 187, -1, -1, 263, -1, -1, 214, -1, -1},
      {-1, 242, 280, -1, -1, -1, -1, -1, 326, -1, -1},
      {-1, 214, -1, -1, -1, 292, -1, -1, -1, -1, -1}}},
    {{{44.86, 78.53, 61.75, 48.62, 48.21, 74.66, 37.27, 50.51, 74.20, 43.64,
       44.37},
      {45.48, 76.92, 71.35, 45.40, 47.67, 71.09, 49.19, 48.41, 67.14, 42.34,
       49.09},
      {48.55, 63.79, 63.74, 48.10, 41.97, 57.21, 42.55, 52.18, 60.50, 47.15,
       48.20},
      {48.83, 61.35, 57.47, 53.54, 53.16, 60.55, 49.42, 54.13, 58.18, 56.54,
       54.19}}}};

inline constexpr TablePair kHamFedYogi{
    "HAM10000", "FedYogi", 0.60, 400,
    {{{-1, 167, 262, -1, -1, 211, -1, -1, 202, -1, -1},
      {-1, 190, -1, -1, -1, 263, -1, -1, 190, -1, -1},
      {-1, 231, 306, -1, -1, 313, -1, -1, 388, -1, -1},
      {-1, 263, -1, -1, -1, 265, -1, -1, 347, -1, -1}}},
    {{{48.26, 66.76, 61.12, 46.48, 42.39, 63.39, 46.28, 49.11, 64.13, 38.25,
       41.59},
      {41.35, 66.41, 59.86, 45.25, 43.70, 62.76, 43.14, 47.09, 64.42, 49.86,
       51.81},
      {46.50, 62.84, 62.36, 54.74, 45.17, 60.58, 41.94, 44.72, 60.71, 43.08,
       44.81},
      {46.55, 62.39, 59.79, 54.66, 55.94, 61.78, 48.13, 50.46, 60.86, 43.46,
       46.85}}}};

inline constexpr TablePair kFemnistFedYogi{
    "FEMNIST", "FedYogi", 0.80, 200,
    {{{146, 62, 81, 168, 124, 69, 102, 113, 78, 85, 194},
      {181, 62, 83, 168, 127, 76, 105, 141, 79, 103, 106},
      {107, 68, 66, 89, 104, 89, 69, 103, 89, 84, 94},
      {115, 75, 55, 115, 106, 86, 83, 108, 78, 88, 106}}},
    {{{80.97, 86.60, 85.27, 80.97, 82.17, 86.75, 83.21, 81.95, 85.85, 84.69,
       80.20},
      {82.60, 86.86, 84.61, 82.51, 81.44, 86.68, 85.24, 80.36, 86.78, 84.74,
       80.89},
      {83.94, 85.37, 85.36, 84.21, 84.23, 85.13, 85.44, 84.39, 85.69, 85.00,
       84.35},
      {82.44, 84.51, 85.51, 83.08, 84.40, 85.00, 86.19, 84.59, 86.04, 84.87,
       84.97}}}};

inline constexpr TablePair kFashionFedYogi{
    "Fashion-MNIST", "FedYogi", 0.80, 200,
    {{{62, 48, 72, 62, 92, 44, 83, 101, 48, 72, 91},
      {60, 51, 74, 58, 107, 53, 69, 91, 42, 82, 104},
      {52, 42, 62, 51, 73, 37, 65, 71, 48, 63, 81},
      {54, 36, 75, 60, 79, 36, 70, 79, 40, 81, 82}}},
    {{{83.92, 85.14, 82.45, 83.88, 81.93, 85.29, 82.24, 81.82, 84.51, 83.16,
       81.99},
      {83.62, 84.75, 82.44, 83.91, 81.85, 84.98, 82.35, 82.53, 85.02, 82.48,
       82.19},
      {84.49, 85.56, 83.12, 84.65, 83.29, 85.70, 82.89, 82.84, 85.03, 83.18,
       82.56},
      {84.40, 86.03, 82.66, 84.03, 82.63, 85.88, 82.74, 82.90, 85.33, 82.52,
       82.70}}}};

// --------------------------- FedProx ---------------------------------

inline constexpr TablePair kEcgFedProx{
    "MIT-BIH ECG", "FedProx", 0.60, 400,
    {{{-1, 129, 198, -1, -1, 143, -1, -1, 255, -1, -1},
      {-1, 146, 197, -1, -1, 204, -1, -1, 215, -1, -1},
      {-1, 182, 334, -1, -1, 383, -1, -1, 389, -1, -1},
      {-1, 203, -1, -1, -1, 398, -1, -1, -1, -1, -1}}},
    {{{46.39, 76.25, 72.31, 48.99, 41.81, 75.26, 46.94, 50.09, 68.14, 46.40,
       44.64},
      {50.63, 74.82, 71.29, 46.58, 50.40, 72.48, 45.03, 51.09, 70.24, 46.22,
       46.75},
      {45.18, 65.58, 61.40, 44.86, 53.83, 60.16, 46.04, 55.04, 60.10, 49.87,
       54.86},
      {47.84, 69.02, 56.68, 50.20, 52.06, 60.41, 50.12, 51.15, 58.00, 56.83,
       50.15}}}};

inline constexpr TablePair kHamFedProx{
    "HAM10000", "FedProx", 0.60, 400,
    {{{-1, 151, 323, -1, -1, 206, -1, -1, 172, -1, -1},
      {-1, 201, 298, -1, -1, 198, -1, -1, 198, -1, -1},
      {-1, 276, -1, -1, -1, -1, -1, -1, 364, -1, -1},
      {-1, 308, 345, -1, -1, 383, -1, -1, 363, -1, -1}}},
    // Table 12 rows 1 and 4 are missing their TiFL 0 %-straggler cell in
    // the published paper; encoded as NaN.
    {{{47.08, 64.53, 60.32, 46.84, kNaN, 65.76, 42.13, 46.07, 67.15, 48.24,
       51.71},
      {41.59, 66.71, 62.25, 46.16, 46.48, 65.55, 44.07, 40.26, 66.74, 43.23,
       39.01},
      {43.66, 63.55, 58.67, 53.65, 54.40, 58.89, 50.15, 54.36, 60.87, 51.07,
       46.38},
      {45.58, 66.71, 61.20, 53.57, kNaN, 60.87, 50.62, 54.16, 60.31, 48.44,
       53.89}}}};

inline constexpr TablePair kFemnistFedProx{
    "FEMNIST", "FedProx", 0.80, 200,
    {{{128, 47, 71, 157, 103, 65, 130, 98, 78, 128, 146},
      {104, 54, 70, 149, 111, 72, 118, 110, 67, 156, 116},
      {84, 62, 53, 84, 110, 90, 82, 108, 80, 77, 98},
      {86, 56, 62, 88, 85, 78, 91, 88, 86, 85, 94}}},
    {{{82.80, 90.43, 86.59, 81.78, 82.96, 87.33, 83.21, 82.53, 86.56, 83.81,
       80.47},
      {83.24, 89.72, 86.51, 83.34, 83.33, 87.02, 83.81, 82.73, 86.82, 82.43,
       81.97},
      {85.60, 88.99, 87.45, 85.05, 85.29, 85.23, 86.11, 84.29, 85.72, 85.91,
       84.87},
      {85.58, 89.27, 86.49, 83.91, 86.21, 86.20, 85.28, 85.06, 85.13, 85.35,
       84.90}}}};

inline constexpr TablePair kFashionFedProx{
    "Fashion-MNIST", "FedProx", 0.80, 200,
    {{{74, 47, 83, 66, 82, 48, 74, 101, 45, 70, 91},
      {62, 42, 75, 69, 78, 48, 82, 91, 48, 71, 104},
      {52, 46, 64, 49, 70, 36, 70, 71, 47, 71, 82},
      {52, 42, 69, 60, 69, 42, 82, 79, 41, 75, 81}}},
    {{{83.91, 85.04, 82.52, 83.46, 82.36, 85.10, 82.52, 81.82, 85.31, 82.89,
       81.99},
      {83.66, 85.46, 82.61, 83.83, 82.01, 84.98, 81.97, 82.53, 84.93, 82.16,
       82.19},
      {84.48, 85.52, 82.86, 84.67, 83.11, 86.14, 82.60, 82.84, 85.02, 82.95,
       82.56},
      {84.56, 85.71, 82.83, 84.00, 83.03, 85.29, 82.75, 82.90, 85.37, 82.56,
       82.70}}}};

// --------------------------- FedAvg ----------------------------------

inline constexpr TablePair kEcgFedAvg{
    "MIT-BIH ECG", "FedAvg", 0.60, 400,
    {{{-1, 136, 344, -1, -1, 210, -1, -1, 200, -1, -1},
      {-1, 162, 192, -1, -1, 263, -1, -1, 214, -1, -1},
      {-1, 378, 393, -1, -1, -1, -1, -1, 397, -1, -1},
      {-1, 393, -1, -1, -1, 395, -1, -1, -1, -1, -1}}},
    {{{47.92, 73.33, 63.02, 45.26, 45.76, 73.16, 36.53, 48.53, 72.71, 42.77,
       46.48},
      {48.06, 72.81, 70.12, 44.09, 48.16, 69.67, 48.21, 49.32, 65.80, 41.49,
       53.75},
      {51.97, 63.76, 60.67, 48.10, 46.86, 56.07, 41.70, 44.86, 60.29, 46.20,
       52.05},
      {54.69, 60.17, 58.65, 53.64, 52.60, 60.34, 48.43, 56.85, 57.02, 55.41,
       53.31}}}};

inline constexpr TablePair kHamFedAvg{
    "HAM10000", "FedAvg", 0.60, 400,
    {{{-1, 329, 271, -1, -1, 250, -1, -1, 234, -1, -1},
      {-1, 300, 323, -1, -1, 201, -1, -1, 217, -1, -1},
      {-1, 300, 385, -1, -1, 376, -1, -1, 356, -1, -1},
      {-1, 385, -1, -1, -1, 395, -1, -1, 398, -1, -1}}},
    {{{46.76, 64.79, 62.05, 47.56, 44.58, 62.96, 42.99, 45.73, 63.51, 49.50,
       51.46},
      {41.83, 64.82, 61.70, 46.87, 45.62, 63.65, 54.70, 56.88, 65.71, 48.96,
       49.37},
      {46.50, 62.42, 60.56, 54.48, 50.00, 60.14, 52.50, 55.22, 60.58, 55.48,
       57.93},
      {46.55, 60.61, 55.55, 54.40, 48.18, 60.00, 50.70, 52.50, 60.21, 47.94,
       50.28}}}};

inline constexpr TablePair kFemnistFedAvg{
    "FEMNIST", "FedAvg", 0.80, 200,
    // Table 21's (0.3, 15 %) TiFL 10 % cell is ">400" in the paper even
    // though the budget is 200 — transcribed as -1.
    {{{130, 46, 71, 168, 118, 65, 130, 123, 78, 128, 153},
      {112, 62, 70, 168, 112, 72, 118, -1, 67, 156, 142},
      {99, 69, 53, 89, 96, 90, 82, 92, 80, 77, 102},
      {99, 58, 62, 115, 90, 78, 91, 109, 86, 85, 88}}},
    {{{82.37, 90.64, 86.59, 80.97, 81.78, 87.33, 83.21, 80.09, 86.46, 83.81,
       80.41},
      {82.48, 89.08, 86.51, 82.51, 81.19, 87.02, 83.81, 79.77, 86.82, 82.43,
       80.61},
      {84.37, 88.20, 87.45, 84.21, 85.33, 85.23, 86.11, 85.16, 85.72, 85.91,
       84.32},
      {84.89, 89.04, 86.49, 83.08, 85.63, 86.20, 85.28, 85.17, 85.13, 85.35,
       85.21}}}};

inline constexpr TablePair kFashionFedAvg{
    "Fashion-MNIST", "FedAvg", 0.80, 200,
    {{{56, 48, 67, 53, 91, 48, 67, 100, 49, 83, 92},
      {70, 43, 65, 62, 92, 52, 80, 110, 54, 78, 105},
      {53, 37, 70, 55, 74, 45, 75, 75, 40, 73, 62},
      {48, 37, 65, 50, 71, 37, 71, 71, 40, 83, 78}}},
    {{{84.13, 85.00, 82.59, 83.99, 82.28, 84.85, 82.73, 82.21, 85.05, 82.39,
       81.86},
      {83.67, 85.55, 83.02, 83.60, 81.76, 84.69, 82.15, 81.61, 84.82, 82.72,
       82.06},
      {84.95, 85.80, 82.82, 84.77, 82.99, 85.53, 82.46, 83.12, 85.23, 82.81,
       83.35},
      {84.48, 85.63, 82.87, 84.04, 82.08, 85.67, 82.72, 83.04, 85.42, 82.30,
       82.77}}}};

// ------------------------------ Grid ---------------------------------

/// One column of every table: the selector, its straggler rate, the
/// column label, the name the shape checks print, and where the paper's
/// numbers for it sit in a row.
struct Arm {
  select::SelectorKind selector;
  double straggler_rate;
  const char* column;
  const char* name;
  int RoundsRow::* paper_rounds;
  double AccuracyRow::* paper_accuracy;
};

inline constexpr std::array<Arm, 11> kArms{{
    {select::SelectorKind::kRandom, 0.0, "Random", "Random",
     &RoundsRow::random, &AccuracyRow::random},
    {select::SelectorKind::kFlips, 0.0, "FLIPS", "FLIPS", &RoundsRow::flips,
     &AccuracyRow::flips},
    {select::SelectorKind::kOort, 0.0, "OORT", "Oort", &RoundsRow::oort,
     &AccuracyRow::oort},
    {select::SelectorKind::kGradClus, 0.0, "GradCls", "GradClus",
     &RoundsRow::gradcls, &AccuracyRow::gradcls},
    {select::SelectorKind::kTifl, 0.0, "TiFL", "TiFL", &RoundsRow::tifl,
     &AccuracyRow::tifl},
    {select::SelectorKind::kFlips, 0.10, "FLIPS/10", "FLIPS",
     &RoundsRow::flips10, &AccuracyRow::flips10},
    {select::SelectorKind::kOort, 0.10, "OORT/10", "Oort",
     &RoundsRow::oort10, &AccuracyRow::oort10},
    {select::SelectorKind::kTifl, 0.10, "TiFL/10", "TiFL",
     &RoundsRow::tifl10, &AccuracyRow::tifl10},
    {select::SelectorKind::kFlips, 0.20, "FLIPS/20", "FLIPS",
     &RoundsRow::flips20, &AccuracyRow::flips20},
    {select::SelectorKind::kOort, 0.20, "OORT/20", "Oort",
     &RoundsRow::oort20, &AccuracyRow::oort20},
    {select::SelectorKind::kTifl, 0.20, "TiFL/20", "TiFL",
     &RoundsRow::tifl20, &AccuracyRow::tifl20},
}};

/// The table pair each preset reproduces, in paper order.
struct PresetTable {
  const char* preset;
  const TablePair* table;
};
inline constexpr std::array<PresetTable, 12> kPresetTables{{
    {"ecg-fedyogi", &kEcgFedYogi},          // Tables 1-2
    {"ham-fedyogi", &kHamFedYogi},          // Tables 3-4
    {"femnist-fedyogi", &kFemnistFedYogi},  // Tables 5-6
    {"fashion-fedyogi", &kFashionFedYogi},  // Tables 7-8
    {"ecg-fedprox", &kEcgFedProx},          // Tables 9-10
    {"ham-fedprox", &kHamFedProx},          // Tables 11-12
    {"femnist-fedprox", &kFemnistFedProx},  // Tables 13-14
    {"fashion-fedprox", &kFashionFedProx},  // Tables 15-16
    {"ecg-fedavg", &kEcgFedAvg},            // Tables 17-18
    {"ham-fedavg", &kHamFedAvg},            // Tables 19-20
    {"femnist-fedavg", &kFemnistFedAvg},    // Tables 21-22
    {"fashion-fedavg", &kFashionFedAvg},    // Tables 23-24
}};

/// The paper tables preset `name` reproduces; nullptr for any other name.
inline const TablePair* table_for(std::string_view name) {
  for (const PresetTable& entry : kPresetTables) {
    if (name == entry.preset) return entry.table;
  }
  return nullptr;
}

/// Grid cell (setting s, arm) of the table pair `spec` runs: the spec
/// plus the five keys the grid varies. A cell is a plain scenario, so
/// scenario_command(cell) re-runs it alone.
inline ScenarioSpec grid_cell(ScenarioSpec spec, std::size_t s,
                              const Arm& arm) {
  spec.alpha = kSettings[s].alpha;
  spec.participation = kSettings[s].party_fraction;
  spec.seed += 17 * s;  // per-setting seed stride
  spec.selector = select::to_string(arm.selector);
  spec.straggler_rate = arm.straggler_rate;
  return spec;
}

}  // namespace flips::bench::paper
