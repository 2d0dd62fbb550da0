// Span tracing: fixed-size POD records written to a TraceSink.
//
// The contract the session stepping thread relies on:
//
//   * Tracer::record() writes the span to the installed sink under the
//     tracer's mutex and never allocates; spans from concurrent
//     producers (several served tenants' stepping threads) reach the
//     sink one at a time, none lost.
//   * With no sink installed the tracer is disabled and record() is a
//     single relaxed load — the "compiled to null sinks" baseline of
//     the bench_micro_obs A/B.
//   * flush() pushes buffered sink output out (the session's metrics
//     observer calls it once per round).
//
// Sinks: JsonlTraceSink appends one JSON object per span to a file;
// NullTraceSink discards (keeps the record path hot for benchmarks).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>

namespace flips::obs {

/// One traced interval. Fixed-size so recording never allocates;
/// names/tenants longer than the fields are truncated.
struct Span {
  char name[24] = {};
  char tenant[24] = {};
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::uint64_t round = 0;
  std::uint64_t start_ns = 0;  ///< steady-clock wall nanoseconds
  std::uint64_t end_ns = 0;
  double sim_time_s = 0.0;  ///< session simulated time at emit

  void set_name(const char* s) { copy_field(name, sizeof name, s); }
  void set_tenant(const char* s) { copy_field(tenant, sizeof tenant, s); }

 private:
  static void copy_field(char* dst, std::size_t cap, const char* s) {
    std::size_t n = std::strlen(s);
    if (n >= cap) n = cap - 1;
    std::memcpy(dst, s, n);
    dst[n] = '\0';
  }
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const Span& span) = 0;
  virtual void flush() {}
};

class NullTraceSink final : public TraceSink {
 public:
  void write(const Span& span) override { (void)span; }
};

/// Appends one JSON object per span. Its tracer serializes writes.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;
  void write(const Span& span) override;
  void flush() override;

 private:
  std::FILE* file_;
};

class Tracer {
 public:
  /// Installs (or clears, with nullptr) the sink. Enabling is
  /// observed by record() via one atomic flag; the swap waits for any
  /// record() in progress.
  void set_sink(std::shared_ptr<TraceSink> sink);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Writes a finished span to the sink. Disabled tracer: no-op.
  void record(const Span& span) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (sink_ != nullptr) sink_->write(span);
  }

  /// Flushes the sink's buffered output.
  void flush();

  /// Process-wide tracer used by MetricsObserver by default. Disabled
  /// until a sink is installed.
  static Tracer& global();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;  ///< serializes sink writes, flushes and swaps
  std::shared_ptr<TraceSink> sink_;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace flips::obs
