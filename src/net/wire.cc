#include "net/wire.h"

#include <concepts>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace muve::net {

namespace {

Status Truncated(const char* what) {
  return Status::ParseError(std::string("wire: truncated ") + what);
}

// ---------------------------------------------------------------------------
// Field tags of the top-level tagged messages. Tag 0 terminates a
// message; tags are never reused for a different meaning within a wire
// version. Nested leaf structs (queries, plots, executions) encode
// positionally — their layout is fixed per version and locked by the
// golden-file tests.

constexpr uint8_t kEndTag = 0;

enum RequestTag : uint8_t {
  kRequestTranscript = 1,
  kRequestVoice = 2,
  kRequestUtterance = 3,
  kRequestNoise = 4,
  kRequestDeadlineMillis = 5,
  kRequestUseIlp = 6,
  kRequestBypassCache = 7,
  kRequestTenantId = 8,
};

enum AnswerTag : uint8_t {
  kAnswerTranscript = 1,
  kAnswerBaseQuery = 2,
  kAnswerBaseConfidence = 3,
  kAnswerCandidates = 4,
  kAnswerPlan = 5,
  kAnswerExecution = 6,
  kAnswerTimings = 7,
  kAnswerDegradation = 8,
  kAnswerPipelineMillis = 9,
  // Routed-execution shard drops. Emitted only when nonzero so answers
  // from in-process (and healthy routed) execution keep their exact v1
  // bytes — the golden file and the cross-topology byte-compare both
  // rely on that. Carried as answer-level tags rather than new fields in
  // the positional Execution/Degradation layouts for the same reason.
  kAnswerExecShardsDropped = 10,
  kAnswerDegShardsDropped = 11,
};

enum PartialQueryTag : uint8_t {
  kPartialQueryKind = 1,
  kPartialQueryAggregate = 2,
  kPartialQueryGrouped = 3,
  kPartialQueryDeadlineMillis = 4,
};

enum PartialResultTag : uint8_t {
  kPartialResultKind = 1,
  kPartialResultSnapshotVersion = 2,
  kPartialResultRowsScanned = 3,
  kPartialResultAggregate = 4,
  kPartialResultGrouped = 5,
};

enum ServedTag : uint8_t {
  kServedAnswer = 1,
  kServedRequestClass = 2,
  kServedShared = 3,
  kServedQueueMillis = 4,
  kServedServiceMillis = 5,
  kServedTotalMillis = 6,
  kServedDeadlineMet = 7,
};

// ---------------------------------------------------------------------------
// One layout per type, run in both directions.
//
// Every byte layout below is a `Codec(io, value)` function template that
// states its fields once, as calls to verbs on `io`. Serialize* runs it
// with an Encoder, whose verbs write; Parse* runs it with a Decoder,
// whose verbs read and carry every hostile-input check. Positional
// structs are a fixed sequence of verbs. Tagged messages are a list of
// `io.Field(tag, present, body)` calls: the Encoder writes each present
// field as [u8 tag][u32 len][body], and the Decoder runs every incoming
// (tag, payload) through the same list, so the matching field decodes
// it. Fields thus apply in stream order, the last of a repeated tag
// wins, and unknown tags are skipped.

/// `T` is `X` or `const X`: the Encoder visits const values, the Decoder
/// mutable ones, so one template serves both.
template <typename T, typename X>
concept Of = std::same_as<std::remove_const_t<T>, X>;

class Encoder {
 public:
  static constexpr bool kDecoding = false;

  explicit Encoder(WireWriter* w) : w_(w) {}

  void U8(uint8_t v) { w_->PutU8(v); }
  void Bool(bool v) { w_->PutBool(v); }
  void U64(uint64_t v) { w_->PutU64(v); }
  void I64(int64_t v) { w_->PutI64(v); }
  void Double(double v) { w_->PutDouble(v); }
  void String(std::string_view v) { w_->PutString(v); }
  /// A field payload that is just the bytes of `v`: the field's own
  /// length prefix delimits it.
  void Raw(std::string_view v) { w_->PutRaw(v); }
  /// One byte; the Decoder rejects values above `max`.
  template <typename E>
  void Enum(E v, E /*max*/, const char* /*what*/) {
    U8(static_cast<uint8_t>(v));
  }
  /// Up to eight bools packed into one byte, the first in bit 0.
  void Flags(std::initializer_list<const bool*> bits) {
    uint8_t flags = 0;
    uint8_t bit = 1;
    for (const bool* b : bits) {
      if (*b) flags |= bit;
      bit <<= 1;
    }
    U8(flags);
  }
  /// A finite deadline travels as its remaining milliseconds (an absolute
  /// instant is meaningless across hosts).
  void Deadline(const muve::Deadline& deadline) {
    Double(deadline.RemainingMillis());
  }
  void OptionalBool(const std::optional<bool>& v) { Bool(*v); }
  /// u32 count, then each element's layout.
  template <typename T>
  void List(const std::vector<T>& items) {
    w_->PutU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) Codec(*this, item);
  }
  template <typename T>
  void Struct(const T& value) {
    Codec(*this, value);
  }
  /// Version byte, the message's fields, end tag.
  template <typename M>
  void Message(const M& message) {
    U8(kWireVersion);
    Codec(*this, message);
    U8(kEndTag);
  }
  template <typename Body>
  void Field(uint8_t tag, bool present, Body body) {
    if (!present) return;
    WireWriter payload;
    Encoder field(&payload);
    body(field);
    U8(tag);
    String(payload.bytes());
  }

 private:
  WireWriter* w_;
};

/// The smallest encoding of a T: that of a default T, whose strings and
/// lists are empty. Decoder::List bounds a claimed count by it.
template <typename T>
size_t MinBytes() {
  static const size_t bytes = [] {
    WireWriter w;
    Encoder(&w).Struct(T{});
    return w.bytes().size();
  }();
  return bytes;
}

/// A default Value is an int64; the smallest is an empty string.
template <>
size_t MinBytes<db::Value>() {
  return 1 + 4;
}

/// Reads through a WireReader. The first failure sticks: later verbs
/// are no-ops and the parse reports that first error.
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  explicit Decoder(WireReader* r) : r_(r) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void Fail(const Status& status) {
    if (ok()) status_ = status;
  }

  void U8(uint8_t& v) { Read(&WireReader::ReadU8, v); }
  void Bool(bool& v) { Read(&WireReader::ReadBool, v); }
  template <std::unsigned_integral T>
  void U64(T& v) {
    Read(&WireReader::ReadU64, v);
  }
  void I64(int64_t& v) { Read(&WireReader::ReadI64, v); }
  void Double(double& v) { Read(&WireReader::ReadDouble, v); }
  void String(std::string& v) { Read(&WireReader::ReadString, v); }
  void Raw(std::string& v) {
    if (ok()) v = std::string(r_->ReadRest());
  }
  template <typename E>
  void Enum(E& v, E max, const char* what) {
    uint8_t raw = 0;
    U8(raw);
    if (!ok()) return;
    if (raw > static_cast<uint8_t>(max)) {
      return Fail(Status::ParseError(
          StrCat({"wire: unknown ", what, " ", std::to_string(raw)})));
    }
    v = static_cast<E>(raw);
  }
  void Flags(std::initializer_list<bool*> bits) {
    uint8_t flags = 0;
    U8(flags);
    uint8_t bit = 1;
    for (bool* b : bits) {
      *b = (flags & bit) != 0;
      bit <<= 1;
    }
  }
  /// Re-anchors the remaining budget on this process's clock; time spent
  /// in transit already drained from it at serialization.
  void Deadline(muve::Deadline& deadline) {
    double remaining = 0.0;
    Double(remaining);
    if (ok()) deadline = muve::Deadline::AfterMillis(remaining);
  }
  void OptionalBool(std::optional<bool>& v) {
    bool value = false;
    Bool(value);
    if (ok()) v = value;
  }
  template <typename T>
  void List(std::vector<T>& items) {
    uint32_t count = 0;
    Read(&WireReader::ReadU32, count);
    if (!ok()) return;
    // Each element takes at least MinBytes<T>() bytes, so a count the
    // rest of the buffer cannot hold is hostile: reject it before it
    // sizes an allocation.
    if (count > r_->remaining() / MinBytes<T>()) {
      return Fail(Status::ParseError(
          StrCat({"wire: count ", std::to_string(count), " exceeds the ",
                  std::to_string(r_->remaining()), " bytes left"})));
    }
    items.clear();
    items.resize(count);
    for (T& item : items) {
      Codec(*this, item);
      if (!ok()) return;
    }
  }
  /// Decodes into a fresh value, so a repeated field replaces it whole.
  template <typename T>
  void Struct(T& value) {
    value = T{};
    Codec(*this, value);
  }
  template <typename M>
  void Message(M& message) {
    message = M{};
    uint8_t version = 0;
    U8(version);
    if (ok() && version != kWireVersion) {
      Fail(Status::ParseError("wire: unsupported version " +
                              std::to_string(version) + " (speaking " +
                              std::to_string(kWireVersion) + ")"));
    }
    while (ok()) {
      U8(tag_);
      if (!ok() || tag_ == kEndTag) break;
      Read(&WireReader::ReadBlock, payload_);
      if (ok()) Codec(*this, message);
    }
    // Bytes after the end tag mean the sender and receiver disagree
    // about message boundaries (a framing bug): reject rather than
    // quietly dropping them.
    if (ok() && !r_->exhausted()) {
      Fail(Status::ParseError(StrCat({"wire: ",
                                      std::to_string(r_->remaining()),
                                      " trailing bytes after message end"})));
    }
  }
  template <typename Body>
  void Field(uint8_t tag, bool /*present*/, Body body) {
    if (tag != tag_ || !ok()) return;
    WireReader payload(payload_);
    Decoder field(&payload);
    body(field);
    if (!field.ok()) Fail(field.status());
  }

 private:
  template <typename T, typename V>
  void Read(Result<T> (WireReader::*read)(), V& out) {
    if (!ok()) return;
    Result<T> got = (r_->*read)();
    if (got.ok()) {
      out = static_cast<V>(std::move(got).value());
    } else {
      status_ = got.status();
    }
  }

  WireReader* r_;
  Status status_;
  /// The field Message is dispatching, and its payload.
  uint8_t tag_ = kEndTag;
  std::string_view payload_;
};

template <typename M>
std::string Serialize(const M& message) {
  WireWriter w;
  Encoder(&w).Message(message);
  return w.Take();
}

template <typename M>
Result<M> Parse(std::string_view data) {
  WireReader r(data);
  Decoder io(&r);
  M message;
  io.Message(message);
  if (!io.ok()) return io.status();
  return message;
}

// ---------------------------------------------------------------------------
// Positional layouts.

template <typename Io, Of<double> D>
void Codec(Io& io, D& value) {
  io.Double(value);
}

template <typename Io, Of<std::string> S>
void Codec(Io& io, S& value) {
  io.String(value);
}

/// A list of lists (plot rows, partial-cell rows).
template <typename Io, typename V>
  requires Of<V, std::vector<typename std::remove_const_t<V>::value_type>>
void Codec(Io& io, V& items) {
  io.List(items);
}

/// The kind byte selects the payload, so Value's two directions are
/// written out by hand.
void Codec(Encoder& io, const db::Value& value) {
  io.Enum(value.type(), db::ValueType::kString, "value kind");
  switch (value.type()) {
    case db::ValueType::kInt64:
      io.I64(value.AsInt64());
      break;
    case db::ValueType::kDouble:
      io.Double(value.AsDouble());
      break;
    case db::ValueType::kString:
      io.String(value.AsString());
      break;
  }
}

void Codec(Decoder& io, db::Value& value) {
  db::ValueType type = db::ValueType::kInt64;
  io.Enum(type, db::ValueType::kString, "value kind");
  switch (type) {
    case db::ValueType::kInt64: {
      int64_t v = 0;
      io.I64(v);
      value = db::Value(v);
      break;
    }
    case db::ValueType::kDouble: {
      double v = 0.0;
      io.Double(v);
      value = db::Value(v);
      break;
    }
    case db::ValueType::kString: {
      std::string v;
      io.String(v);
      value = db::Value(std::move(v));
      break;
    }
  }
}

/// Status: wire error code + message. Status has no setters, so the
/// decoder reads both parts into locals and then builds the value.
template <typename Io, Of<Status> S>
void Codec(Io& io, S& status) {
  uint8_t code = WireErrorCode(status.code());
  std::string message = status.message();
  io.U8(code);
  io.String(message);
  if constexpr (Io::kDecoding) {
    Result<StatusCode> decoded = StatusCodeFromWire(code);
    if (!decoded.ok()) return io.Fail(decoded.status());
    status = *decoded == StatusCode::kOk ? Status::OK()
                                         : Status(*decoded, std::move(message));
  }
}

template <typename Io, Of<db::Predicate> P>
void Codec(Io& io, P& predicate) {
  io.String(predicate.column);
  io.Enum(predicate.op, db::PredicateOp::kIn, "predicate op");
  io.List(predicate.values);
}

template <typename Io, Of<db::AggregateQuery> Q>
void Codec(Io& io, Q& query) {
  io.String(query.table);
  io.Enum(query.function, db::AggregateFunction::kMax, "aggregate function");
  io.String(query.aggregate_column);
  io.List(query.predicates);
}

template <typename Io, Of<db::AggregateSpec> A>
void Codec(Io& io, A& spec) {
  io.Enum(spec.function, db::AggregateFunction::kMax, "aggregate function");
  io.String(spec.column);
}

template <typename Io, Of<db::GroupByQuery> Q>
void Codec(Io& io, Q& query) {
  io.String(query.table);
  io.List(query.shared_predicates);
  io.String(query.group_column);
  io.List(query.group_values);
  io.List(query.aggregates);
}

// Partials carry the executor's raw merge state: the doubles cross the
// wire as their IEEE-754 bit patterns, so the coordinator folds exactly
// the values a local shard scan would have produced — the byte-identity
// contract rests on this.
template <typename Io, Of<db::AggregatePartial> A>
void Codec(Io& io, A& partial) {
  io.U64(partial.count);
  io.Double(partial.sum);
  io.Double(partial.min);
  io.Double(partial.max);
}

template <typename Io, Of<db::GroupedPartial> G>
void Codec(Io& io, G& partial) {
  io.List(partial.cells);
}

template <typename Io, Of<core::CandidateQuery> C>
void Codec(Io& io, C& candidate) {
  Codec(io, candidate.query);
  io.Double(candidate.probability);
}

template <typename Io, Of<core::CandidateSet> S>
void Codec(Io& io, S& set) {
  if constexpr (Io::kDecoding) {
    std::vector<core::CandidateQuery> candidates;
    io.List(candidates);
    set = core::CandidateSet(std::move(candidates));
  } else {
    io.List(set.candidates());
  }
}

template <typename Io, Of<core::PlotBar> B>
void Codec(Io& io, B& bar) {
  io.U64(bar.candidate_index);
  io.String(bar.label);
  io.Bool(bar.highlighted);
  io.Double(bar.value);
  io.Bool(bar.approximate);
}

template <typename Io, Of<core::Plot> P>
void Codec(Io& io, P& plot) {
  io.String(plot.query_template.key);
  io.String(plot.query_template.title);
  io.Enum(plot.query_template.slot, core::SlotKind::kPredicateColumn,
          "template slot");
  io.List(plot.bars);
}

template <typename Io, Of<core::PlanResult> P>
void Codec(Io& io, P& plan) {
  io.List(plan.multiplot.rows);
  io.Double(plan.expected_cost);
  io.Double(plan.optimize_millis);
  io.Bool(plan.timed_out);
  io.U64(plan.nodes_explored);
  io.Double(plan.processing_cost);
  io.Double(plan.best_bound);
  io.Double(plan.optimality_gap);
}

template <typename Io, Of<exec::Execution> E>
void Codec(Io& io, E& execution) {
  io.List(execution.values);
  io.Double(execution.measured_millis);
  io.Double(execution.modeled_millis);
  io.U64(execution.queries_issued);
  io.Double(execution.estimated_cost);
  io.U64(execution.units_dropped);
  io.U64(execution.bars_dropped);
  io.U64(execution.plots_dropped);
  io.Bool(execution.deadline_hit);
  io.U64(execution.snapshot_version);
}

template <typename Io, Of<StageTimings> T>
void Codec(Io& io, T& timings) {
  io.Double(timings.asr_millis);
  io.Double(timings.translate_millis);
  io.Double(timings.generate_millis);
  io.Double(timings.plan_millis);
  io.Double(timings.execute_millis);
}

template <typename Io, Of<Degradation> D>
void Codec(Io& io, D& degradation) {
  io.Enum(degradation.rung, Degradation::Rung::kBaseOnly, "degradation rung");
  io.Flags({&degradation.candidates_capped, &degradation.plan_truncated,
            &degradation.ilp_fell_back, &degradation.base_only_fallback});
  io.U64(degradation.units_dropped);
  io.U64(degradation.bars_dropped);
  io.U64(degradation.plots_dropped);
}

template <typename Io, Of<speech::SpeechNoiseOptions> N>
void Codec(Io& io, N& noise) {
  io.Double(noise.substitution_rate);
  io.Double(noise.deletion_rate);
  io.U64(noise.confusion_k);
}

// ---------------------------------------------------------------------------
// Tagged messages.

/// `rng` and `stage_observer` do not cross the wire (see wire.h).
template <typename Io, Of<Request> R>
void Codec(Io& io, R& request) {
  io.Field(kRequestTranscript, true,
           [&](auto& f) { f.Raw(request.transcript); });
  io.Field(kRequestVoice, request.voice,
           [&](auto& f) { f.Bool(request.voice); });
  io.Field(kRequestUtterance, request.voice,
           [&](auto& f) { f.Raw(request.utterance); });
  io.Field(kRequestNoise, request.voice,
           [&](auto& f) { f.Struct(request.noise); });
  io.Field(kRequestDeadlineMillis, request.deadline.IsFinite(),
           [&](auto& f) { f.Deadline(request.deadline); });
  io.Field(kRequestUseIlp, request.use_ilp.has_value(),
           [&](auto& f) { f.OptionalBool(request.use_ilp); });
  io.Field(kRequestBypassCache, request.bypass_cache,
           [&](auto& f) { f.Bool(request.bypass_cache); });
  io.Field(kRequestTenantId, !request.tenant_id.empty(),
           [&](auto& f) { f.Raw(request.tenant_id); });
}

template <typename Io, Of<MuveEngine::Answer> A>
void Codec(Io& io, A& answer) {
  io.Field(kAnswerTranscript, true,
           [&](auto& f) { f.Raw(answer.transcript); });
  io.Field(kAnswerBaseQuery, true,
           [&](auto& f) { f.Struct(answer.base_query); });
  io.Field(kAnswerBaseConfidence, true,
           [&](auto& f) { f.Double(answer.base_confidence); });
  io.Field(kAnswerCandidates, true,
           [&](auto& f) { f.Struct(answer.candidates); });
  io.Field(kAnswerPlan, true, [&](auto& f) { f.Struct(answer.plan); });
  io.Field(kAnswerExecution, true,
           [&](auto& f) { f.Struct(answer.execution); });
  io.Field(kAnswerTimings, true, [&](auto& f) { f.Struct(answer.timings); });
  io.Field(kAnswerDegradation, true,
           [&](auto& f) { f.Struct(answer.degradation); });
  io.Field(kAnswerPipelineMillis, true,
           [&](auto& f) { f.Double(answer.pipeline_millis); });
  io.Field(kAnswerExecShardsDropped, answer.execution.shards_dropped > 0,
           [&](auto& f) { f.U64(answer.execution.shards_dropped); });
  io.Field(kAnswerDegShardsDropped, answer.degradation.shards_dropped > 0,
           [&](auto& f) { f.U64(answer.degradation.shards_dropped); });
}

template <typename Io, Of<serve::ServedAnswer> S>
void Codec(Io& io, S& served) {
  io.Field(kServedAnswer, true, [&](auto& f) { f.Message(served.answer); });
  io.Field(kServedRequestClass, true, [&](auto& f) {
    f.Enum(served.request_class,
           static_cast<serve::RequestClass>(serve::kNumRequestClasses - 1),
           "request class");
  });
  io.Field(kServedShared, true, [&](auto& f) { f.Bool(served.shared); });
  io.Field(kServedQueueMillis, true,
           [&](auto& f) { f.Double(served.queue_millis); });
  io.Field(kServedServiceMillis, true,
           [&](auto& f) { f.Double(served.service_millis); });
  io.Field(kServedTotalMillis, true,
           [&](auto& f) { f.Double(served.total_millis); });
  io.Field(kServedDeadlineMet, true,
           [&](auto& f) { f.Bool(served.deadline_met); });
}

template <typename Io, Of<PartialQuery> Q>
void Codec(Io& io, Q& query) {
  const bool aggregate = query.kind == PartialQuery::Kind::kAggregate;
  io.Field(kPartialQueryKind, true, [&](auto& f) {
    f.Enum(query.kind, PartialQuery::Kind::kGrouped, "partial-query kind");
  });
  io.Field(kPartialQueryAggregate, aggregate,
           [&](auto& f) { f.Struct(query.aggregate); });
  io.Field(kPartialQueryGrouped, !aggregate,
           [&](auto& f) { f.Struct(query.grouped); });
  io.Field(kPartialQueryDeadlineMillis, query.deadline.IsFinite(),
           [&](auto& f) { f.Deadline(query.deadline); });
}

template <typename Io, Of<PartialResult> R>
void Codec(Io& io, R& result) {
  const bool aggregate = result.kind == PartialQuery::Kind::kAggregate;
  io.Field(kPartialResultKind, true, [&](auto& f) {
    f.Enum(result.kind, PartialQuery::Kind::kGrouped, "partial-result kind");
  });
  io.Field(kPartialResultSnapshotVersion, true,
           [&](auto& f) { f.U64(result.snapshot_version); });
  io.Field(kPartialResultRowsScanned, true,
           [&](auto& f) { f.U64(result.rows_scanned); });
  io.Field(kPartialResultAggregate, aggregate,
           [&](auto& f) { f.Struct(result.aggregate); });
  io.Field(kPartialResultGrouped, !aggregate,
           [&](auto& f) { f.Struct(result.grouped); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Primitives.

template <typename T>
void WireWriter::PutFixed(T v) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out_.append(bytes, sizeof(T));
}

void WireWriter::PutU32(uint32_t v) { PutFixed(v); }
void WireWriter::PutU64(uint64_t v) { PutFixed(v); }

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view v) {
  PutU32(static_cast<uint32_t>(v.size()));
  out_.append(v.data(), v.size());
}

Result<uint8_t> WireReader::ReadU8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> WireReader::ReadBool() {
  MUVE_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  return v != 0;
}

template <typename T>
Result<T> WireReader::ReadFixed(const char* what) {
  if (remaining() < sizeof(T)) return Truncated(what);
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += sizeof(T);
  return v;
}

Result<uint32_t> WireReader::ReadU32() { return ReadFixed<uint32_t>("u32"); }
Result<uint64_t> WireReader::ReadU64() { return ReadFixed<uint64_t>("u64"); }

Result<int64_t> WireReader::ReadI64() {
  MUVE_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::ReadDouble() {
  MUVE_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::ReadString() {
  MUVE_ASSIGN_OR_RETURN(std::string_view block, ReadBlock());
  return std::string(block);
}

Result<std::string_view> WireReader::ReadBlock() {
  MUVE_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (remaining() < len) return Truncated("block");
  std::string_view block = data_.substr(pos_, len);
  pos_ += len;
  return block;
}

std::string_view WireReader::ReadRest() {
  std::string_view rest = data_.substr(pos_);
  pos_ = data_.size();
  return rest;
}

// ---------------------------------------------------------------------------
// Status codes.

namespace {

/// The one table both directions derive from: StatusCode <-> wire code.
/// Append-only — wire codes are part of the protocol.
constexpr std::pair<StatusCode, uint8_t> kStatusCodeTable[] = {
    {StatusCode::kOk, 0},
    {StatusCode::kInvalidArgument, 1},
    {StatusCode::kNotFound, 2},
    {StatusCode::kOutOfRange, 3},
    {StatusCode::kFailedPrecondition, 4},
    {StatusCode::kUnimplemented, 5},
    {StatusCode::kTimeout, 6},
    {StatusCode::kInternal, 7},
    {StatusCode::kParseError, 8},
    {StatusCode::kInfeasible, 9},
    {StatusCode::kUnbounded, 10},
    {StatusCode::kOverloaded, 11},
};

}  // namespace

uint8_t WireErrorCode(StatusCode code) {
  for (const auto& [status_code, wire_code] : kStatusCodeTable) {
    if (status_code == code) return wire_code;
  }
  // Unreachable for in-range codes; map anything unexpected to internal.
  return WireErrorCode(StatusCode::kInternal);
}

Result<StatusCode> StatusCodeFromWire(uint8_t wire_code) {
  for (const auto& [status_code, mapped] : kStatusCodeTable) {
    if (mapped == wire_code) return status_code;
  }
  return Status::ParseError("wire: unknown status code " +
                            std::to_string(wire_code));
}

void EncodeStatus(const Status& status, WireWriter* w) {
  Encoder(w).Struct(status);
}

Status DecodeStatus(WireReader* r, Status* out) {
  Decoder io(r);
  Status decoded;
  io.Struct(decoded);
  if (io.ok()) *out = std::move(decoded);
  return io.status();
}

// ---------------------------------------------------------------------------
// Top-level messages.

std::string SerializeRequest(const Request& request) {
  return Serialize(request);
}

Result<Request> ParseRequest(std::string_view data) {
  return Parse<Request>(data);
}

std::string SerializeRequestPayload(const Request& request,
                                    serve::RequestClass request_class) {
  return static_cast<char>(request_class) + SerializeRequest(request);
}

std::string SerializeAnswer(const MuveEngine::Answer& answer) {
  return Serialize(answer);
}

std::string SerializeAnswerDeterministic(MuveEngine::Answer answer) {
  answer.timings = StageTimings{};
  answer.pipeline_millis = 0.0;
  answer.plan.optimize_millis = 0.0;
  answer.execution.measured_millis = 0.0;
  answer.execution.modeled_millis = 0.0;
  return SerializeAnswer(answer);
}

Result<MuveEngine::Answer> ParseAnswer(std::string_view data) {
  return Parse<MuveEngine::Answer>(data);
}

std::string SerializeServedAnswer(const serve::ServedAnswer& served) {
  return Serialize(served);
}

Result<serve::ServedAnswer> ParseServedAnswer(std::string_view data) {
  return Parse<serve::ServedAnswer>(data);
}

std::string SerializePartialQuery(const PartialQuery& query) {
  return Serialize(query);
}

Result<PartialQuery> ParsePartialQuery(std::string_view data) {
  return Parse<PartialQuery>(data);
}

std::string SerializePartialResult(const PartialResult& result) {
  return Serialize(result);
}

Result<PartialResult> ParsePartialResult(std::string_view data) {
  return Parse<PartialResult>(data);
}

}  // namespace muve::net
