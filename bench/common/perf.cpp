#include "common/perf.h"

#include <cinttypes>
#include <cstdio>
#include <iostream>

namespace flips::bench {

PerfLine::PerfLine(std::string_view tag) : line_("perf,") {
  line_ += tag;
}

PerfLine& PerfLine::num(std::string_view field, double value,
                        int decimals) {
  (void)field;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  line_ += ',';
  line_ += buf;
  return *this;
}

PerfLine& PerfLine::uint(std::string_view field, std::uint64_t value) {
  (void)field;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  line_ += ',';
  line_ += buf;
  return *this;
}

PerfLine& PerfLine::text(std::string_view field, std::string_view value) {
  (void)field;
  line_ += ',';
  line_ += value;
  return *this;
}

void PerfLine::print() const { std::cout << line_ << '\n'; }

}  // namespace flips::bench
