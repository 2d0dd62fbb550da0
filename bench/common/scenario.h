// The one command line every bench binary is configured through: a
// ScenarioSpec (scenario/spec.h) from a preset plus `--set key=value`
// overrides, e.g.
//   flips_tables --scenario ham-fedprox --set parties=30 --set runs=1
#pragma once

#include <functional>
#include <string_view>

#include "scenario/spec.h"

namespace flips {

/// What a bench command line resolves to.
struct ScenarioArgs {
  ScenarioSpec spec;
  bool csv = false;          ///< --csv: also print accuracy curves
  bool paper_scale = false;  ///< --paper-scale appeared
};

/// A binary's own flags beyond the shared grammar: called with each
/// argument the shared parser does not know, and a `value` callback
/// that consumes the next argument. Returns false when `flag` is not
/// one of its own either; throws std::exception on a bad value.
using ExtraFlags = std::function<bool(
    std::string_view flag, const std::function<const char*()>& value)>;

/// The one bench command-line grammar, applied left to right over
/// `spec` (the binary's own defaults):
///   --scenario NAME   apply preset NAME's own keys (apply_preset)
///   --set key=value   apply_override(spec, key=value)
///   --paper-scale     shorthand for parties=200 samples=120 rounds=400
///                     runs=6 eval_every=2
///   --csv             also print accuracy curves as CSV rows
///   --help, -h        print `usage` (the binary's own flags), the
///                     shared flags and every key; exit 0
/// An unknown flag, a missing value or a bad value prints the reason
/// and exits 2.
[[nodiscard]] ScenarioArgs parse_scenario_args(
    int argc, char** argv, ScenarioSpec spec, std::string_view usage = {},
    const ExtraFlags& extra = {});

}  // namespace flips
