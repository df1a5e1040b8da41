#ifndef MUVE_NET_WIRE_H_
#define MUVE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"
#include "muve/muve_engine.h"
#include "serve/server.h"

namespace muve::net {

/// Wire-format version stamped on every serialized top-level message.
/// Parsers reject newer versions instead of misreading them.
inline constexpr uint8_t kWireVersion = 1;

/// Little-endian primitive writer over a growing byte buffer. Integers
/// are fixed-width little-endian, doubles are their IEEE-754 bit
/// pattern as u64 (round trips are bit-exact, NaN payloads included),
/// strings are u32 length + raw bytes.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(std::string_view v);
  /// Appends raw bytes without a length prefix.
  void PutRaw(std::string_view v) { out_.append(v.data(), v.size()); }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void PutFixed(T v);

  std::string out_;
};

/// Bounds-checked reader over a serialized buffer. Every getter fails
/// with ParseError instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<bool> ReadBool();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Reads a u32-length-prefixed sub-buffer (view into this reader).
  Result<std::string_view> ReadBlock();
  /// Reads every byte left (view into this reader).
  std::string_view ReadRest();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ >= data_.size(); }

 private:
  template <typename T>
  Result<T> ReadFixed(const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

/// StatusCode <-> stable wire error code. The wire values are part of
/// the protocol: they never change meaning, and every StatusCode has
/// exactly one (the round-trip test enumerates them all).
uint8_t WireErrorCode(StatusCode code);
Result<StatusCode> StatusCodeFromWire(uint8_t wire_code);

/// Status: wire error code + message. Decode's return value is the
/// parse outcome; the decoded status lands in `*out` (out-param because
/// Result<Status> would be ambiguous) and only when the parse succeeds.
void EncodeStatus(const Status& status, WireWriter* w);
Status DecodeStatus(WireReader* r, Status* out);

/// Top-level codecs. Serialize stamps kWireVersion; Parse rejects
/// unknown versions, trailing or truncated bytes, out-of-range enum
/// bytes, and list counts the remaining bytes cannot hold. Fields are
/// tagged (tag 0 terminates), so parsers skip tags they do not know — an
/// old reader tolerates a newer writer within one version.
///
/// Request: `rng` and `stage_observer` do not cross the wire (the
/// serving side derives per-request RNGs from the session stream; the
/// observer is an in-process test hook and blocks single-flight
/// coalescing anyway). A finite deadline travels as *remaining*
/// milliseconds and is re-anchored on the receiver's clock.
std::string SerializeRequest(const Request& request);
Result<Request> ParseRequest(std::string_view data);

/// The payload of a kRequest frame: u8 RequestClass, then the
/// SerializeRequest bytes. net::Listener parses it.
std::string SerializeRequestPayload(const Request& request,
                                    serve::RequestClass request_class);

std::string SerializeAnswer(const MuveEngine::Answer& answer);
Result<MuveEngine::Answer> ParseAnswer(std::string_view data);

/// SerializeAnswer of a copy with every wall-clock and calibration field
/// zeroed (stage timings, pipeline/optimize/measured/modeled millis).
/// Two executions of the same query against the same data then serialize
/// to identical bytes — the form the golden files pin and the e2e smoke
/// byte-compares across topologies.
std::string SerializeAnswerDeterministic(MuveEngine::Answer answer);

std::string SerializeServedAnswer(const serve::ServedAnswer& served);
Result<serve::ServedAnswer> ParseServedAnswer(std::string_view data);

// ---------------------------------------------------------------------------
// Partial-aggregate messages (the router's downstream leg; frame types
// kPartialQuery / kPartialResult). A shard server scans its local stripe
// and answers with raw merge state — db::AggregatePartial or
// db::GroupedPartial — plus the snapshot version it scanned, so the
// coordinator can fold the per-shard partials in shard order with the
// exact arithmetic shard::ScatterGather applies in process.

/// One shard-scan request: exactly one of `aggregate` / `grouped` is
/// meaningful, selected by `kind`.
struct PartialQuery {
  enum class Kind : uint8_t { kAggregate = 0, kGrouped = 1 };

  Kind kind = Kind::kAggregate;
  db::AggregateQuery aggregate;
  db::GroupByQuery grouped;
  /// Scan budget. Travels as remaining milliseconds (re-anchored on the
  /// receiver's clock, like Request deadlines); infinite when absent.
  Deadline deadline;
};

/// One shard's answer: the partial selected by `kind`, the shard
/// snapshot version it was computed against, and the rows the stripe
/// holds at that version (the coordinator sums these into
/// GroupByResult::rows_scanned).
struct PartialResult {
  PartialQuery::Kind kind = PartialQuery::Kind::kAggregate;
  uint64_t snapshot_version = 0;
  uint64_t rows_scanned = 0;
  db::AggregatePartial aggregate;
  db::GroupedPartial grouped;
};

std::string SerializePartialQuery(const PartialQuery& query);
Result<PartialQuery> ParsePartialQuery(std::string_view data);

std::string SerializePartialResult(const PartialResult& result);
Result<PartialResult> ParsePartialResult(std::string_view data);

}  // namespace muve::net

#endif  // MUVE_NET_WIRE_H_
