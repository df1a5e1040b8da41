#include "net/protocol.h"

#include <utility>

#include "common/strings.h"
#include "net/wire.h"

namespace muve::net {

Result<std::string> EncodeFrame(FrameType type, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size() + 1));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutRaw(payload);
  return w.Take();
}

Result<uint32_t> ParseFrameLength(std::string_view header) {
  WireReader r(header);
  MUVE_ASSIGN_OR_RETURN(const uint32_t length, r.ReadU32());
  if (length == 0 || length > kMaxFrameBytes) {
    return Status::ParseError(
        StrCat({"bad frame length ", std::to_string(length)}));
  }
  return length;
}

std::string ErrorPayload(const Status& status) {
  WireWriter w;
  EncodeStatus(status, &w);
  return w.Take();
}

Status ParseErrorPayload(std::string_view payload, Status* peer) {
  WireReader reader(payload);
  Status status;
  MUVE_RETURN_NOT_OK(DecodeStatus(&reader, &status));
  if (status.ok()) {
    return Status::ParseError("error frame carried an OK status");
  }
  *peer = std::move(status);
  return Status::OK();
}

}  // namespace muve::net
