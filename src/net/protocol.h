#ifndef MUVE_NET_PROTOCOL_H_
#define MUVE_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace muve::net {

/// One protocol frame: `[u32 length][u8 type][payload]`, length counting
/// the type byte plus the payload (so an empty-payload frame has
/// length 1). Integers are little-endian like the rest of the wire
/// format (wire.h).
enum class FrameType : uint8_t {
  kRequest = 1,  ///< payload: u8 RequestClass + SerializeRequest bytes.
  kAnswer = 2,   ///< payload: SerializeServedAnswer bytes.
  kError = 3,    ///< payload: EncodeStatus bytes (never StatusCode::kOk).
  kPing = 4,     ///< empty payload; the peer responds kPong.
  kPong = 5,     ///< empty payload.
  /// Shard-server execution (the router's downstream leg): one scan of
  /// the shard's local stripe, answered with a partial aggregate instead
  /// of a finished plot.
  kPartialQuery = 6,   ///< payload: SerializePartialQuery bytes.
  kPartialResult = 7,  ///< payload: SerializePartialResult bytes.
  /// Operational counters: empty-payload request, answered with a kStats
  /// frame whose payload is a JSON document (the router reports its
  /// per-shard retry/hedge/ejection counters this way).
  kStats = 8,
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Upper bound on the length field: a peer announcing more than this is
/// treated as a protocol error instead of an allocation request.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// The one frame encoder: returns `[u32 length][u8 type][payload]`, or
/// InvalidArgument when the frame would exceed kMaxFrameBytes.
Result<std::string> EncodeFrame(FrameType type, std::string_view payload);

/// The one frame-length check: decodes the u32 length field at the front
/// of `header`. A zero length (a frame has at least its type byte) or one
/// over kMaxFrameBytes is a ParseError, so a hostile peer never sizes an
/// allocation.
Result<uint32_t> ParseFrameLength(std::string_view header);

/// The one error-frame pair. ErrorPayload encodes `status` as the
/// payload of a kError frame. ParseErrorPayload decodes one into `*peer`,
/// the peer's status: a payload that does not decode, or that carries
/// OK, returns a ParseError and leaves `*peer` untouched.
std::string ErrorPayload(const Status& status);
Status ParseErrorPayload(std::string_view payload, Status* peer);

}  // namespace muve::net

#endif  // MUVE_NET_PROTOCOL_H_
