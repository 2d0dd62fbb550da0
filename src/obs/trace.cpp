#include "obs/trace.h"

#include <stdexcept>

namespace flips::obs {

// ---------------------------------------------------------------------------
// JsonlTraceSink

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::write(const Span& span) {
  std::fprintf(file_,
               "{\"name\":\"%s\",\"tenant\":\"%s\",\"id\":%llu,"
               "\"parent\":%llu,\"round\":%llu,\"start_ns\":%llu,"
               "\"end_ns\":%llu,\"sim_s\":%.6f}\n",
               span.name, span.tenant,
               static_cast<unsigned long long>(span.id),
               static_cast<unsigned long long>(span.parent),
               static_cast<unsigned long long>(span.round),
               static_cast<unsigned long long>(span.start_ns),
               static_cast<unsigned long long>(span.end_ns), span.sim_time_s);
}

void JsonlTraceSink::flush() {
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// Tracer

void Tracer::set_sink(std::shared_ptr<TraceSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
  enabled_.store(sink_ != nullptr, std::memory_order_relaxed);
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) sink_->flush();
}

Tracer& Tracer::global() {
  static Tracer g;
  return g;
}

}  // namespace flips::obs
