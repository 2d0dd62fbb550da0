// The one perf-line emitter behind every `perf,...` CSV line the CI
// perf job scrapes into BENCH_*.csv artifacts. Each field is formatted
// as it is appended, so the printed schemas stay byte-identical to the
// historical printf ones.
//
// Usage (replaces an ad-hoc snprintf):
//
//   PerfLine("serving")
//       .uint("tenants", tenants)
//       .num("p50_ms", p50, 3)
//       .text("verify", "yes")
//       .print();                 // -> "perf,serving,8,1.234,yes\n"
//
// Field names are not printed; they name each column at the call site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flips::bench {

class PerfLine {
 public:
  /// `tag` is the line's second CSV column ("serving", "async", a
  /// selector name, ...). Fields print in append order.
  explicit PerfLine(std::string_view tag);

  /// Fixed-point field printed as %.<decimals>f.
  PerfLine& num(std::string_view field, double value, int decimals);
  /// Integer field printed as %llu.
  PerfLine& uint(std::string_view field, std::uint64_t value);
  /// Non-numeric field (verdicts, codec names) printed verbatim.
  PerfLine& text(std::string_view field, std::string_view value);

  /// Prints "perf,<tag>[,<field value>...]\n" to stdout.
  void print() const;

 private:
  std::string line_;
};

}  // namespace flips::bench
