// Payload encodings for the serving wire format (net/codec.h frames).
// The framing layer moves opaque bytes; this header defines what the
// bytes mean per FrameType:
//
//   kHello        request: tenant name (UTF-8 text)
//                 reply:   server banner text
//   kOpenSession  request: "key=value\n" lines (a ScenarioSpec's
//                          to_key_values() image)
//                 reply:   resolved-config echo in the same kv format
//   kStep         request: u64 client-chosen request id
//                 reply:   u64 id, u32 rounds completed, u8 finished
//                          (id-only on kRejected / kSessionDone, so
//                          out-of-band rejections queued by the
//                          I/O thread still match their request)
//   kResult       request: empty
//                 reply:   u32 dim, dim f64 final parameters
//   kShutdown     request/reply: empty
//
// Integers are little-endian; doubles are IEEE-754 bit images in
// little-endian byte order (both ends of every supported deployment
// are little-endian hosts). Error replies of any type carry a
// human-readable message as text payload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flips::serve {

/// Ordered key=value pairs — same shape as flips::KeyValueList, but
/// declared here so the serve layer does not depend on the scenario
/// library (scenario/spec.h).
using KvPairs = std::vector<std::pair<std::string, std::string>>;

using Bytes = std::vector<std::uint8_t>;

// ---- Primitive writers (append to the payload). ----
void put_u8(std::uint8_t value, Bytes& out);
void put_u32(std::uint32_t value, Bytes& out);
void put_u64(std::uint64_t value, Bytes& out);
void put_f64(double value, Bytes& out);

/// Bounds-checked sequential reader over a payload. Every get_*
/// returns false once the payload is exhausted — truncated payloads
/// are rejected, never over-read.
class PayloadReader {
 public:
  explicit PayloadReader(const Bytes& payload) : payload_(payload) {}
  bool get_u8(std::uint8_t& value);
  bool get_u32(std::uint32_t& value);
  bool get_u64(std::uint64_t& value);
  bool get_f64(double& value);
  [[nodiscard]] bool exhausted() const {
    return offset_ == payload_.size();
  }

 private:
  const Bytes& payload_;
  std::size_t offset_ = 0;
};

// ---- Text payloads (hello, banners, error messages). ----
Bytes encode_text(std::string_view text);
std::string decode_text(const Bytes& payload);

// ---- key=value payloads (scenario submission / echo). ----
Bytes encode_kv(const KvPairs& kv);
/// Parses "key=value\n" lines. Returns false (and sets `error`) on a
/// line without '=' or an empty key; values may be empty.
bool decode_kv(const Bytes& payload, KvPairs& kv, std::string& error);

// ---- Step request/reply. ----
struct StepReply {
  std::uint64_t request_id = 0;
  std::uint32_t round = 0;  ///< rounds completed after this step
  bool finished = false;
};
Bytes encode_step_request(std::uint64_t request_id);
bool decode_step_request(const Bytes& payload, std::uint64_t& request_id);
Bytes encode_step_reply(const StepReply& reply);
bool decode_step_reply(const Bytes& payload, StepReply& reply);

// ---- Result reply (the served model's final parameters). ----
Bytes encode_result_reply(const std::vector<double>& parameters);
bool decode_result_reply(const Bytes& payload,
                         std::vector<double>& parameters);

}  // namespace flips::serve
