#include "common/scenario.h"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace flips {

ScenarioArgs parse_scenario_args(int argc, char** argv, ScenarioSpec spec,
                                 std::string_view usage,
                                 const ExtraFlags& extra) {
  ScenarioArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::function<const char*()> value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::string message = "missing value for ";
          message += arg;
          throw std::invalid_argument(message);
        }
        return argv[++i];
      };
      if (arg == "--scenario") {
        apply_preset(spec, value());
      } else if (arg == "--set") {
        apply_override(spec, value());
      } else if (arg == "--paper-scale") {
        args.paper_scale = true;
        for (const char* key : {"parties=200", "samples=120", "rounds=400",
                                "runs=6", "eval_every=2"}) {
          apply_override(spec, key);
        }
      } else if (arg == "--csv") {
        args.csv = true;
      } else if (arg == "--help" || arg == "-h") {
        std::string_view program = argv[0];
        program = program.substr(program.rfind('/') + 1);
        std::cout << "usage: " << program
                  << " [--scenario NAME] [--set key=value]... "
                     "[--paper-scale] [--csv]\n"
                  << usage
                  << "  --scenario NAME   apply preset NAME's own keys "
                     "(flips_run --list)\n"
                     "  --set key=value   set one scenario key (listed "
                     "below)\n"
                     "  --paper-scale     --set parties=200 samples=120 "
                     "rounds=400 runs=6 eval_every=2\n"
                     "  --csv             also print accuracy curves as "
                     "CSV rows\n\n"
                     "scenario keys (with the resolved scenario's values):\n"
                  << scenario_usage(spec);
        std::exit(0);
      } else if (!extra || !extra(arg, value)) {
        std::string message = "unknown flag: ";
        message += arg;
        message += " (try --help)";
        throw std::invalid_argument(message);
      }
    }
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    std::exit(2);
  }
  args.spec = std::move(spec);
  return args;
}

}  // namespace flips
