/// Tests for the wire format and the TCP transport (src/net/):
/// primitive round-trips (bit-exact doubles, bounds-checked reads), the
/// table-driven StatusCode <-> wire error-code mapping over every
/// status code, Request/Answer/ServedAnswer codec round-trips (via
/// serialize -> parse -> reserialize byte equality on real pipeline
/// answers), checked-in golden files pinning the v1 encodings, hostile
/// list counts, and in-process Listener + Connection exchanges over a
/// real loopback socket — including a quota rejection whose kOverloaded
/// status crosses the wire intact — and the Listener's lifecycle:
/// connection churn, clean and broken stream ends, Shutdown with idle
/// connections, and an accept loop that outlives a full fd table.
///
/// Regenerate the golden files after an intentional format change with
///   MUVE_WRITE_GOLDEN=1 ./net_test --gtest_filter='*Golden*'
/// (a version bump, since v1 bytes are a compatibility contract).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "muve/muve_engine.h"
#include "net/connection.h"
#include "net/listener.h"
#include "net/wire.h"
#include "serve/server.h"
#include "workload/datasets.h"

namespace muve::net {
namespace {

// ---------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------

TEST(WirePrimitivesTest, RoundTripsEveryPrimitive) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutBool(true);
  w.PutBool(false);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(-0.0);
  w.PutString("hello wire");
  w.PutString("");  // Empty strings are legal.

  WireReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_FALSE(r.ReadBool().value());
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadI64().value(), -42);
  const double negative_zero = r.ReadDouble().value();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));  // -0.0 survives, bit-exact.
  EXPECT_EQ(r.ReadString().value(), "hello wire");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(WirePrimitivesTest, DoublesAreBitExactIncludingNaNPayloads) {
  // Doubles travel as their IEEE-754 bit pattern: infinities, subnormals
  // and NaN payload bits all round-trip exactly.
  const uint64_t nan_payload_bits = 0x7FF800000000BEEFull;
  double weird_nan;
  static_assert(sizeof(weird_nan) == sizeof(nan_payload_bits));
  std::memcpy(&weird_nan, &nan_payload_bits, sizeof(weird_nan));
  const double cases[] = {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(), weird_nan};
  for (const double value : cases) {
    WireWriter w;
    w.PutDouble(value);
    WireReader r(w.bytes());
    const double back = r.ReadDouble().value();
    uint64_t value_bits = 0, back_bits = 0;
    std::memcpy(&value_bits, &value, sizeof(value));
    std::memcpy(&back_bits, &back, sizeof(back));
    EXPECT_EQ(value_bits, back_bits);
  }
}

TEST(WirePrimitivesTest, TruncatedBuffersFailWithParseError) {
  WireWriter w;
  w.PutU64(7);
  w.PutString("abcdef");
  const std::string& full = w.bytes();
  // Every proper prefix must fail cleanly on some read, never crash or
  // fabricate data.
  for (size_t len = 0; len < full.size(); ++len) {
    WireReader r(std::string_view(full.data(), len));
    const auto u = r.ReadU64();
    if (!u.ok()) {
      EXPECT_EQ(u.status().code(), StatusCode::kParseError);
      continue;
    }
    const auto s = r.ReadString();
    ASSERT_FALSE(s.ok()) << "prefix " << len;
    EXPECT_EQ(s.status().code(), StatusCode::kParseError);
  }
  // A string whose declared length exceeds the buffer also fails.
  WireWriter lying;
  lying.PutU32(1000);
  lying.PutRaw("short");
  WireReader r(lying.bytes());
  const auto s = r.ReadString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------
// StatusCode <-> wire error code.
// ---------------------------------------------------------------------

struct StatusCodeCase {
  StatusCode code;
  uint8_t wire;
};

/// Every StatusCode with its frozen wire value. Append-only: new codes
/// get new wire values; these assignments never change.
constexpr StatusCodeCase kStatusCodeCases[] = {
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

TEST(StatusWireTest, EveryStatusCodeRoundTripsThroughItsFrozenWireValue) {
  for (const StatusCodeCase& c : kStatusCodeCases) {
    EXPECT_EQ(WireErrorCode(c.code), c.wire);
    const auto back = StatusCodeFromWire(c.wire);
    ASSERT_TRUE(back.ok()) << "wire code " << int(c.wire);
    EXPECT_EQ(*back, c.code);
  }
}

TEST(StatusWireTest, UnknownWireCodesFailWithParseError) {
  for (const uint8_t wire : {uint8_t{12}, uint8_t{100}, uint8_t{255}}) {
    const auto decoded = StatusCodeFromWire(wire);
    ASSERT_FALSE(decoded.ok()) << int(wire);
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  }
}

TEST(StatusWireTest, EncodeDecodeCarriesCodeAndMessage) {
  for (const StatusCodeCase& c : kStatusCodeCases) {
    const Status original =
        c.code == StatusCode::kOk
            ? Status::OK()
            : Status(c.code,
                     StrCat({"detail for code ", std::to_string(c.wire)}));
    WireWriter w;
    EncodeStatus(original, &w);
    WireReader r(w.bytes());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(&r, &decoded).ok());
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

TEST(RequestCodecTest, TextRequestRoundTripsWithAllControls) {
  Request request = Request::Text("show me complaints in queens");
  request.tenant_id = "tenant-a";
  request.bypass_cache = true;
  request.use_ilp = false;

  const auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->transcript, request.transcript);
  EXPECT_FALSE(parsed->voice);
  EXPECT_EQ(parsed->tenant_id, "tenant-a");
  EXPECT_TRUE(parsed->bypass_cache);
  ASSERT_TRUE(parsed->use_ilp.has_value());
  EXPECT_FALSE(*parsed->use_ilp);
  EXPECT_FALSE(parsed->deadline.IsFinite());
  // In-process-only hooks never cross the wire.
  EXPECT_EQ(parsed->rng, nullptr);
  EXPECT_FALSE(static_cast<bool>(parsed->stage_observer));
}

TEST(RequestCodecTest, VoiceRequestCarriesUtteranceAndNoise) {
  Rng rng(7);
  speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.25;
  noise.deletion_rate = 0.05;
  noise.confusion_k = 3;
  Request request = Request::Voice("average delay in brooklyn", &rng, noise);

  const auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->voice);
  EXPECT_EQ(parsed->utterance, "average delay in brooklyn");
  EXPECT_EQ(parsed->noise.substitution_rate, 0.25);
  EXPECT_EQ(parsed->noise.deletion_rate, 0.05);
  EXPECT_EQ(parsed->noise.confusion_k, 3u);
  // The sender's RNG pointer is meaningless in the receiving process;
  // the serving side re-seeds from the session stream.
  EXPECT_EQ(parsed->rng, nullptr);
}

TEST(RequestCodecTest, FiniteDeadlineTravelsAsRemainingBudget) {
  Request request = Request::Text("count complaints");
  request.deadline = Deadline::AfterMillis(5000.0);
  const auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->deadline.IsFinite());
  // Re-anchored on the receiver's clock: remaining budget is preserved
  // up to the (tiny) serialize/parse latency.
  const double remaining = parsed->deadline.RemainingMillis();
  EXPECT_GT(remaining, 3000.0);
  EXPECT_LE(remaining, 5000.0 + 1.0);

  Request unbounded = Request::Text("count complaints");
  const auto parsed_unbounded = ParseRequest(SerializeRequest(unbounded));
  ASSERT_TRUE(parsed_unbounded.ok());
  EXPECT_FALSE(parsed_unbounded->deadline.IsFinite());
}

TEST(RequestCodecTest, GarbageAndTruncationFailWithParseError) {
  EXPECT_EQ(ParseRequest("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseRequest("\xFFgarbage").status().code(),
            StatusCode::kParseError);
  const std::string full =
      SerializeRequest(Request::Text("show me complaints"));
  for (size_t len = 0; len < full.size(); ++len) {
    const auto parsed = ParseRequest(std::string_view(full.data(), len));
    ASSERT_FALSE(parsed.ok()) << "prefix " << len;
  }
  // Trailing bytes after a complete message are a framing bug upstream.
  EXPECT_FALSE(ParseRequest(full + "x").ok());
}

// ---------------------------------------------------------------------
// Answer codec.
// ---------------------------------------------------------------------

std::shared_ptr<db::Table> TestTable() {
  Rng rng(777);
  return workload::Make311Table(1500, &rng);
}

/// A real pipeline answer with its wall-clock fields zeroed — everything
/// left is a deterministic function of the (seeded) table and the
/// transcript, which makes serialized bytes reproducible run to run.
MuveEngine::Answer DeterministicAnswer(const std::string& transcript) {
  MuveEngine engine(TestTable());
  auto answer = engine.Ask(Request::Text(transcript));
  EXPECT_TRUE(answer.ok()) << transcript;
  answer->timings = StageTimings{};
  answer->pipeline_millis = 0.0;
  answer->plan.optimize_millis = 0.0;
  answer->execution.measured_millis = 0.0;
  // Modeled time scales by a per-process cost-model calibration.
  answer->execution.modeled_millis = 0.0;
  return *std::move(answer);
}

TEST(AnswerCodecTest, PipelineAnswerReserializesByteIdentically) {
  // Serialize -> parse -> reserialize is a fixed point: if the parse
  // dropped or perturbed any field the second serialization would
  // differ somewhere in the bytes.
  const MuveEngine::Answer answer =
      DeterministicAnswer("how many complaints in brooklyn");
  const std::string first = SerializeAnswer(answer);
  const auto parsed = ParseAnswer(first);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->transcript, answer.transcript);
  EXPECT_EQ(parsed->base_query.ToSql(), answer.base_query.ToSql());
  EXPECT_EQ(parsed->candidates.size(), answer.candidates.size());
  EXPECT_EQ(SerializeAnswer(*parsed), first);
}

TEST(AnswerCodecTest, ServedAnswerRoundTripsServingMeasurements) {
  serve::ServedAnswer served;
  served.answer = DeterministicAnswer("average open hours for noise in queens");
  served.request_class = serve::RequestClass::kReplay;
  served.shared = true;
  served.queue_millis = 1.5;
  served.service_millis = 12.25;
  served.total_millis = 13.75;
  served.deadline_met = false;

  const std::string bytes = SerializeServedAnswer(served);
  const auto parsed = ParseServedAnswer(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_class, serve::RequestClass::kReplay);
  EXPECT_TRUE(parsed->shared);
  EXPECT_EQ(parsed->queue_millis, 1.5);
  EXPECT_EQ(parsed->service_millis, 12.25);
  EXPECT_EQ(parsed->total_millis, 13.75);
  EXPECT_FALSE(parsed->deadline_met);
  EXPECT_EQ(SerializeServedAnswer(*parsed), bytes);
}

#ifndef MUVE_GOLDEN_DIR
#define MUVE_GOLDEN_DIR "tests/golden"
#endif

TEST(AnswerCodecTest, GoldenFilePinsTheV1Encoding) {
  // The golden file freezes the v1 Answer bytes: a codec change that
  // silently re-encodes existing fields breaks old readers even when
  // round-trip tests still pass, and this test is what catches it.
  const std::string path =
      std::string(MUVE_GOLDEN_DIR) + "/answer_v1.bin";
  const MuveEngine::Answer answer =
      DeterministicAnswer("how many complaints in brooklyn");
  const std::string bytes = SerializeAnswer(answer);

  if (std::getenv("MUVE_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MUVE_WRITE_GOLDEN=1)";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string golden = contents.str();
  // The golden still parses (compatibility), and today's encoder still
  // produces exactly those bytes (stability).
  const auto parsed = ParseAnswer(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->transcript, answer.transcript);
  EXPECT_EQ(bytes, golden);
}

// ---------------------------------------------------------------------
// Listener + Connection end-to-end over loopback.
// ---------------------------------------------------------------------

Result<serve::ServedAnswer> Ask(Connection& client, const Request& request) {
  MUVE_ASSIGN_OR_RETURN(
      Frame reply,
      client.Call(FrameType::kRequest,
                  SerializeRequestPayload(request,
                                          serve::RequestClass::kInteractive),
                  Deadline::Infinite()));
  if (reply.type != FrameType::kAnswer) {
    return Status::ParseError("expected an Answer frame");
  }
  return ParseServedAnswer(reply.payload);
}


class LoopbackTest : public ::testing::Test {
 protected:
  void StartServer(serve::ServerOptions options = {}) {
    options.num_workers = 2;
    server_ = std::make_unique<serve::Server>(TestTable(), options);
    listener_ = std::make_unique<Listener>(server_.get());
    ASSERT_TRUE(listener_->Start().ok());
    ASSERT_NE(listener_->port(), 0);
  }

  void TearDown() override {
    if (listener_ != nullptr) listener_->Shutdown();
    if (server_ != nullptr) server_->Drain();
  }

  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(LoopbackTest, PingAndAskOverARealSocket) {
  StartServer();
  auto client = Connection::Connect("127.0.0.1", listener_->port(), 0.0);
  ASSERT_TRUE(client.ok()) << client.status().message();
  const auto pong = client->Call(FrameType::kPing, "", Deadline::Infinite());
  ASSERT_TRUE(pong.ok()) << pong.status().message();
  EXPECT_EQ(pong->type, FrameType::kPong);

  const auto served =
      Ask(*client, Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_FALSE(served->answer.transcript.empty());
  EXPECT_FALSE(served->answer.base_query.table.empty());
  EXPECT_GE(served->service_millis, 0.0);

  // The networked answer is byte-identical to the in-process answer for
  // the same transcript (single codec, shared serving pipeline) — up to
  // the serving-side wall-clock measurements, which we zero on both.
  auto direct = server_->Ask(
      "direct-session", Request::Text("how many complaints in brooklyn"));
  ASSERT_TRUE(direct.ok());
  auto normalize = [](MuveEngine::Answer answer) {
    answer.timings = StageTimings{};
    answer.pipeline_millis = 0.0;
    answer.plan.optimize_millis = 0.0;
    answer.execution.measured_millis = 0.0;
    answer.execution.modeled_millis = 0.0;
    return SerializeAnswer(answer);
  };
  EXPECT_EQ(normalize(served->answer), normalize(direct->answer));

  const ListenerStats stats = listener_->stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.requests_served, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(LoopbackTest, QuotaRejectionCrossesTheWireAsOverloaded) {
  serve::ServerOptions options;
  // One token, a refill rate that cannot restore it within the test:
  // the first request is admitted, the second is a deterministic quota
  // rejection.
  options.tenant_quotas["metered"] = {/*rate_qps=*/0.001, /*burst=*/1.0,
                                      /*weight=*/1.0};
  StartServer(options);
  auto client = Connection::Connect("127.0.0.1", listener_->port(), 0.0);
  ASSERT_TRUE(client.ok());

  Request request = Request::Text("how many complaints in brooklyn");
  request.tenant_id = "metered";
  ASSERT_TRUE(Ask(*client, request).ok());

  const auto rejected = Ask(*client, request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  // The tenant and its contract survive the encode/decode round trip.
  EXPECT_NE(rejected.status().message().find("metered"), std::string::npos)
      << rejected.status().message();
  EXPECT_NE(rejected.status().message().find("over quota"),
            std::string::npos)
      << rejected.status().message();

  // The connection survives an application-level rejection: the same
  // client keeps working as another tenant.
  EXPECT_TRUE(client->connected());
  EXPECT_TRUE(
      Ask(*client, Request::Text("how many complaints in brooklyn")).ok());
}

TEST_F(LoopbackTest, ConcurrentClientsGetConsistentAnswers) {
  StartServer();
  const uint16_t port = listener_->port();
  constexpr int kClients = 4;
  std::vector<std::string> serialized(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = Connection::Connect("127.0.0.1", port, 0.0);
      if (!client.ok()) return;
      auto served =
          Ask(*client, Request::Text("average open hours for noise in queens"));
      if (!served.ok()) return;
      auto answer = std::move(served->answer);
      answer.timings = StageTimings{};
      answer.pipeline_millis = 0.0;
      answer.plan.optimize_millis = 0.0;
      answer.execution.measured_millis = 0.0;
      answer.execution.modeled_millis = 0.0;
      serialized[i] = SerializeAnswer(answer);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(serialized[i].empty()) << "client " << i;
    EXPECT_EQ(serialized[i], serialized[0]) << "client " << i;
  }
}

// ---------------------------------------------------------------------
// Partial-aggregate codec (the router's downstream messages).
// ---------------------------------------------------------------------

/// Deterministic sample messages: every field populated, including the
/// merge-identity extrema (+/-inf), which must cross the wire bit-exact
/// for routed answers to match local scatter-gather byte-for-byte.
PartialQuery SampleAggregateQuery() {
  PartialQuery query;
  query.kind = PartialQuery::Kind::kAggregate;
  query.aggregate.table = "f311";
  query.aggregate.function = db::AggregateFunction::kSum;
  query.aggregate.aggregate_column = "open_hours";
  query.aggregate.predicates.push_back(
      db::Predicate::Equals("city", db::Value("queens")));
  query.aggregate.predicates.push_back(db::Predicate::In(
      "complaint", {db::Value("noise"), db::Value("heating")}));
  return query;
}

PartialQuery SampleGroupedQuery() {
  PartialQuery query;
  query.kind = PartialQuery::Kind::kGrouped;
  query.grouped.table = "f311";
  query.grouped.shared_predicates.push_back(
      db::Predicate::Equals("status", db::Value("open")));
  query.grouped.group_column = "city";
  query.grouped.group_values = {"queens", "quincy"};
  query.grouped.aggregates.push_back(
      {db::AggregateFunction::kCount, ""});
  query.grouped.aggregates.push_back(
      {db::AggregateFunction::kAvg, "open_hours"});
  return query;
}

PartialResult SampleGroupedResult() {
  PartialResult result;
  result.kind = PartialQuery::Kind::kGrouped;
  result.snapshot_version = 41;
  result.rows_scanned = 1234;
  db::AggregatePartial populated;
  populated.count = 17;
  populated.sum = 42.5;
  populated.min = -3.25;
  populated.max = 99.0;
  // One populated cell, one untouched merge identity (count 0, +/-inf
  // extrema).
  result.grouped.cells = {{populated, db::AggregatePartial{}},
                          {db::AggregatePartial{}, populated}};
  return result;
}

TEST(PartialCodecTest, AggregateQueryRoundTripsByteIdentically) {
  const PartialQuery query = SampleAggregateQuery();
  const std::string bytes = SerializePartialQuery(query);
  const auto parsed = ParsePartialQuery(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->kind, PartialQuery::Kind::kAggregate);
  EXPECT_EQ(parsed->aggregate.ToSql(), query.aggregate.ToSql());
  EXPECT_FALSE(parsed->deadline.IsFinite());
  // Infinite deadline: serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(SerializePartialQuery(*parsed), bytes);
}

TEST(PartialCodecTest, GroupedQueryRoundTripsByteIdentically) {
  const PartialQuery query = SampleGroupedQuery();
  const std::string bytes = SerializePartialQuery(query);
  const auto parsed = ParsePartialQuery(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->kind, PartialQuery::Kind::kGrouped);
  EXPECT_EQ(parsed->grouped.ToSql(), query.grouped.ToSql());
  EXPECT_EQ(SerializePartialQuery(*parsed), bytes);
}

TEST(PartialCodecTest, FiniteDeadlineTravelsAsRemainingBudget) {
  FakeClock clock(1000.0);
  PartialQuery query = SampleAggregateQuery();
  query.deadline = Deadline::AfterMillis(250.0, &clock);
  clock.AdvanceMillis(100.0);  // 150ms left at serialization time.
  const std::string bytes = SerializePartialQuery(query);
  const auto parsed = ParsePartialQuery(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->deadline.IsFinite());
  // Re-anchored on the receiver's clock: roughly the remaining budget.
  EXPECT_GT(parsed->deadline.RemainingMillis(), 100.0);
  EXPECT_LE(parsed->deadline.RemainingMillis(), 150.0);
}

TEST(PartialCodecTest, ResultRoundTripsMergeIdentityBitExact) {
  const PartialResult result = SampleGroupedResult();
  const std::string bytes = SerializePartialResult(result);
  const auto parsed = ParsePartialResult(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->kind, PartialQuery::Kind::kGrouped);
  EXPECT_EQ(parsed->snapshot_version, 41u);
  EXPECT_EQ(parsed->rows_scanned, 1234u);
  ASSERT_EQ(parsed->grouped.cells.size(), 2u);
  const db::AggregatePartial& identity = parsed->grouped.cells[0][1];
  EXPECT_EQ(identity.count, 0u);
  EXPECT_EQ(identity.min, std::numeric_limits<double>::infinity());
  EXPECT_EQ(identity.max, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(SerializePartialResult(*parsed), bytes);

  PartialResult aggregate;
  aggregate.kind = PartialQuery::Kind::kAggregate;
  aggregate.snapshot_version = 7;
  aggregate.rows_scanned = 99;
  aggregate.aggregate.count = 3;
  aggregate.aggregate.sum = 0.1 + 0.2;  // A non-representable double.
  const std::string aggregate_bytes = SerializePartialResult(aggregate);
  const auto aggregate_parsed = ParsePartialResult(aggregate_bytes);
  ASSERT_TRUE(aggregate_parsed.ok());
  EXPECT_EQ(SerializePartialResult(*aggregate_parsed), aggregate_bytes);
}

TEST(PartialCodecTest, GarbageSkewAndTruncationAreRejected) {
  EXPECT_EQ(ParsePartialQuery("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePartialResult("").status().code(), StatusCode::kParseError);

  const std::string query_bytes = SerializePartialQuery(SampleGroupedQuery());
  const std::string result_bytes =
      SerializePartialResult(SampleGroupedResult());

  // Version skew: a newer version byte must be rejected, not misread.
  std::string skewed = query_bytes;
  skewed[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(ParsePartialQuery(skewed).status().code(),
            StatusCode::kParseError);
  skewed = result_bytes;
  skewed[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(ParsePartialResult(skewed).status().code(),
            StatusCode::kParseError);

  // Every proper prefix fails cleanly; trailing bytes are a framing bug.
  for (size_t len = 0; len < query_bytes.size(); ++len) {
    EXPECT_FALSE(
        ParsePartialQuery(std::string_view(query_bytes.data(), len)).ok())
        << "prefix " << len;
  }
  for (size_t len = 0; len < result_bytes.size(); ++len) {
    EXPECT_FALSE(
        ParsePartialResult(std::string_view(result_bytes.data(), len)).ok())
        << "prefix " << len;
  }
  EXPECT_FALSE(ParsePartialQuery(query_bytes + "x").ok());
  EXPECT_FALSE(ParsePartialResult(result_bytes + "x").ok());
}

TEST(PartialCodecTest, GoldenFilePinsTheV1Encoding) {
  // Pins the v1 bytes of both partial messages (length-prefixed, query
  // then result) the same way answer_v1.bin pins the Answer encoding.
  const std::string path =
      std::string(MUVE_GOLDEN_DIR) + "/partial_v1.bin";
  WireWriter combined;
  combined.PutString(SerializePartialQuery(SampleGroupedQuery()));
  combined.PutString(SerializePartialResult(SampleGroupedResult()));
  const std::string bytes = combined.Take();

  if (std::getenv("MUVE_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MUVE_WRITE_GOLDEN=1)";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string golden = contents.str();
  EXPECT_EQ(bytes, golden);
  WireReader reader(golden);
  const auto query_block = reader.ReadString();
  const auto result_block = reader.ReadString();
  ASSERT_TRUE(query_block.ok());
  ASSERT_TRUE(result_block.ok());
  EXPECT_TRUE(ParsePartialQuery(*query_block).ok());
  EXPECT_TRUE(ParsePartialResult(*result_block).ok());
}

// ---------------------------------------------------------------------
// wire_v1.bin: the layouts the two golden files above leave unpinned.
// ---------------------------------------------------------------------

/// A hand-built Answer with every field populated: all three Value
/// kinds, an empty plot row, a NaN bar, both shards-dropped tags and all
/// four degradation flags.
MuveEngine::Answer SampleAnswer() {
  MuveEngine::Answer answer;
  answer.transcript = "average delay for ua in bostn";
  answer.base_query.table = "flights";
  answer.base_query.function = db::AggregateFunction::kAvg;
  answer.base_query.aggregate_column = "delay";
  answer.base_query.predicates.push_back(
      db::Predicate::Equals("carrier", db::Value("UA")));
  answer.base_query.predicates.push_back(db::Predicate::In(
      "month", {db::Value(int64_t{-7}), db::Value(2.5)}));
  answer.base_confidence = 0.625;
  db::AggregateQuery alternative = answer.base_query;
  alternative.predicates[0] = db::Predicate::Equals("carrier", db::Value("AA"));
  answer.candidates.Add(answer.base_query, 0.75);
  answer.candidates.Add(alternative, 0.25);

  core::Plot plot;
  plot.query_template.key = "avg(delay)|carrier=?";
  plot.query_template.title = "AVG(delay) WHERE carrier = ?";
  plot.query_template.slot = core::SlotKind::kPredicateColumn;
  plot.bars.push_back({0, "UA", true, 12.5, false});
  plot.bars.push_back(
      {1, "AA", false, std::numeric_limits<double>::quiet_NaN(), true});
  answer.plan.multiplot.rows = {{plot}, {}};
  answer.plan.expected_cost = 3.5;
  answer.plan.optimize_millis = 0.5;
  answer.plan.timed_out = true;
  answer.plan.nodes_explored = 11;
  answer.plan.processing_cost = 1.25;
  answer.plan.best_bound = 3.25;
  answer.plan.optimality_gap = 0.0625;

  answer.execution.values = {12.5, -0.0};
  answer.execution.measured_millis = 2.0;
  answer.execution.modeled_millis = 3.0;
  answer.execution.queries_issued = 2;
  answer.execution.estimated_cost = 4.5;
  answer.execution.units_dropped = 5;
  answer.execution.bars_dropped = 6;
  answer.execution.plots_dropped = 7;
  answer.execution.deadline_hit = true;
  answer.execution.shards_dropped = 2;
  answer.execution.snapshot_version = 99;

  answer.timings = {1.0, 2.0, 3.0, 4.0, 5.0};
  answer.degradation.rung = Degradation::Rung::kBaseOnly;
  answer.degradation.candidates_capped = true;
  answer.degradation.plan_truncated = true;
  answer.degradation.ilp_fell_back = true;
  answer.degradation.base_only_fallback = true;
  answer.degradation.units_dropped = 8;
  answer.degradation.bars_dropped = 9;
  answer.degradation.plots_dropped = 10;
  answer.degradation.shards_dropped = 1;
  answer.pipeline_millis = 15.0;
  return answer;
}

/// A voice Request carrying every tag except the deadline (a finite
/// deadline serializes its remaining budget, which is not reproducible).
Request SampleRequest() {
  speech::SpeechNoiseOptions noise;
  noise.substitution_rate = 0.25;
  noise.deletion_rate = 0.125;
  noise.confusion_k = 3;
  Request request = Request::Voice("average delay for ua in boston",
                                   /*rng=*/nullptr, noise);
  request.transcript = "average delay for ua in bostn";
  request.use_ilp = true;
  request.bypass_cache = true;
  request.tenant_id = "tenant-golden";
  return request;
}

serve::ServedAnswer SampleServedAnswer() {
  serve::ServedAnswer served;
  served.answer = SampleAnswer();
  served.request_class = serve::RequestClass::kReplay;
  served.shared = true;
  served.queue_millis = 1.5;
  served.service_millis = 12.25;
  served.total_millis = 13.75;
  served.deadline_met = false;
  return served;
}

PartialResult SampleAggregateResult() {
  PartialResult result;
  result.kind = PartialQuery::Kind::kAggregate;
  result.snapshot_version = 7;
  result.rows_scanned = 99;
  result.aggregate.count = 3;
  result.aggregate.sum = 0.1 + 0.2;
  result.aggregate.min = -1.5;
  result.aggregate.max = 2.75;
  return result;
}

TEST(WireGoldenTest, GoldenFilePinsTheRemainingV1Layouts) {
  // Length-prefixed blocks, in order: Request, ServedAnswer, aggregate
  // PartialQuery, aggregate PartialResult, Answer.
  const std::string path = std::string(MUVE_GOLDEN_DIR) + "/wire_v1.bin";
  const std::string blocks[] = {
      SerializeRequest(SampleRequest()),
      SerializeServedAnswer(SampleServedAnswer()),
      SerializePartialQuery(SampleAggregateQuery()),
      SerializePartialResult(SampleAggregateResult()),
      SerializeAnswer(SampleAnswer()),
  };
  WireWriter combined;
  for (const std::string& block : blocks) combined.PutString(block);
  const std::string bytes = combined.Take();

  if (std::getenv("MUVE_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MUVE_WRITE_GOLDEN=1)";
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string golden = contents.str();
  EXPECT_EQ(bytes, golden);

  // Every golden block parses, and re-serializing the parse reproduces
  // it exactly.
  WireReader reader(golden);
  std::vector<std::string> read;
  for (size_t i = 0; i < std::size(blocks); ++i) {
    const auto block = reader.ReadString();
    ASSERT_TRUE(block.ok()) << "block " << i;
    read.push_back(*block);
  }
  EXPECT_TRUE(reader.exhausted());
  const auto request = ParseRequest(read[0]);
  const auto served = ParseServedAnswer(read[1]);
  const auto query = ParsePartialQuery(read[2]);
  const auto result = ParsePartialResult(read[3]);
  const auto answer = ParseAnswer(read[4]);
  ASSERT_TRUE(request.ok()) << request.status().message();
  ASSERT_TRUE(served.ok()) << served.status().message();
  ASSERT_TRUE(query.ok()) << query.status().message();
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(SerializeRequest(*request), read[0]);
  EXPECT_EQ(SerializeServedAnswer(*served), read[1]);
  EXPECT_EQ(SerializePartialQuery(*query), read[2]);
  EXPECT_EQ(SerializePartialResult(*result), read[3]);
  EXPECT_EQ(SerializeAnswer(*answer), read[4]);
  EXPECT_EQ(answer->execution.shards_dropped, 2u);
  EXPECT_EQ(answer->degradation.shards_dropped, 1u);
  EXPECT_TRUE(answer->degradation.base_only_fallback);
  EXPECT_EQ(*request->use_ilp, true);
  EXPECT_EQ(request->noise.confusion_k, 3u);
}

// ---------------------------------------------------------------------
// Hostile counts and frame lengths.
// ---------------------------------------------------------------------

/// 17 bytes: a grouped PartialResult whose cell list claims 2^24 groups
/// (version, kind field = grouped, grouped field holding only the count,
/// end tag). Sizing the list by the claim would allocate ~400 MB.
std::string HostileGroupedResult() {
  const char bytes[] = {1,                               // version
                        1, 1, 0, 0, 0, 1,                // kind: grouped
                        5, 4, 0, 0, 0, 0, 0, 0, 1,       // 2^24 groups
                        0};                              // end
  return std::string(bytes, sizeof(bytes));
}

/// 21 bytes: a grouped PartialQuery claiming 2^32-1 shared predicates
/// (empty table name, then the count). Reserving by the claim throws
/// std::bad_alloc.
std::string HostileGroupedQuery() {
  const char bytes[] = {1,                                    // version
                        1, 1, 0, 0, 0, 1,                     // kind
                        3, 8, 0, 0, 0,                        // grouped
                        0, 0, 0, 0,                           // table ""
                        '\xFF', '\xFF', '\xFF', '\xFF',        // count
                        0};                                   // end
  return std::string(bytes, sizeof(bytes));
}

TEST(HostileInputTest, ResultClaimingMillionsOfGroupsIsAParseError) {
  const std::string bytes = HostileGroupedResult();
  ASSERT_EQ(bytes.size(), 17u);
  const auto parsed = ParsePartialResult(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("count 16777216"),
            std::string::npos)
      << parsed.status().message();
}

TEST(HostileInputTest, QueryClaimingBillionsOfPredicatesIsAParseError) {
  const std::string bytes = HostileGroupedQuery();
  ASSERT_EQ(bytes.size(), 21u);
  const auto parsed = ParsePartialQuery(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("count 4294967295"),
            std::string::npos)
      << parsed.status().message();
}

TEST(HostileInputTest, CountsTheBytesCanHoldStillParse) {
  // The bound is exact, not a cap: the grouped query's last list holds
  // three smallest-possible specs (kind byte + empty column, 5 bytes
  // each), so its count equals the bytes left / 5 and still parses.
  PartialQuery query = SampleGroupedQuery();
  query.grouped.aggregates.assign(3, {db::AggregateFunction::kCount, ""});
  const auto parsed = ParsePartialQuery(SerializePartialQuery(query));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->grouped.aggregates.size(), 3u);
}

TEST(FrameTest, OneEncoderAndOneLengthCheck) {
  const auto frame = EncodeFrame(FrameType::kStats, "abc");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, std::string("\x04\x00\x00\x00\x08" "abc", 8));
  const auto length = ParseFrameLength(*frame);
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(*length, 4u);

  WireWriter max;
  max.PutU32(kMaxFrameBytes);
  EXPECT_TRUE(ParseFrameLength(max.bytes()).ok());
  for (const uint32_t bad : {0u, kMaxFrameBytes + 1, 0xFFFFFFFFu}) {
    WireWriter header;
    header.PutU32(bad);
    const auto parsed = ParseFrameLength(header.bytes());
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(ParseFrameLength("\x01\x00\x00").ok());  // Short header.
  EXPECT_EQ(EncodeFrame(FrameType::kAnswer,
                        std::string(kMaxFrameBytes, 'x')).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Connect timeout and the non-blocking connection.
// ---------------------------------------------------------------------

/// A listening socket whose backlog we saturate so further connection
/// attempts stall in SYN_SENT — the "unresponsive peer" a connect
/// timeout exists for. Plain loopback connects can't reproduce this
/// (they complete instantly), so the test manufactures it.
class SaturatedListener {
 public:
  bool Init() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, /*backlog=*/0) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      return false;
    }
    port_ = ntohs(addr.sin_port);
    return true;
  }

  /// Fills the accept queue (never accepting) until a bounded connect
  /// attempt times out. False if this kernel keeps completing
  /// handshakes (then the test skips rather than flakes).
  bool Saturate() {
    for (int i = 0; i < 32; ++i) {
      Result<Connection> filler =
          Connection::Connect("127.0.0.1", port_, 200.0);
      if (!filler.ok()) {
        return filler.status().code() == StatusCode::kTimeout;
      }
      fillers_.push_back(std::move(*filler));
    }
    return false;
  }

  uint16_t port() const { return port_; }

  ~SaturatedListener() {
    fillers_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<Connection> fillers_;
};

TEST(ConnectTimeoutTest, UnresponsivePeerYieldsTimeoutNotAHang) {
  SaturatedListener peer;
  ASSERT_TRUE(peer.Init());
  if (!peer.Saturate()) {
    GTEST_SKIP() << "could not saturate the accept backlog on this kernel";
  }
  StopWatch timer;
  auto client = Connection::Connect("127.0.0.1", peer.port(),
                                     /*connect_timeout_ms=*/100.0);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kTimeout)
      << client.status().message();
  // Bounded by the timeout, not the kernel's minutes-long default.
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

TEST(ConnectionTest, PingPongOverARealSocket) {
  Rng rng(777);
  serve::Server server(
      std::shared_ptr<const db::Table>(workload::Make311Table(500, &rng)));
  Listener listener(&server);
  ASSERT_TRUE(listener.Start().ok());

  auto client = Connection::Connect("127.0.0.1", listener.port(), 250.0);
  ASSERT_TRUE(client.ok()) << client.status().message();
  const Deadline deadline = Deadline::AfterMillis(2000.0);
  ASSERT_TRUE(client->Send(FrameType::kPing, "", deadline).ok());
  auto frame = client->Receive(deadline);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->type, FrameType::kPong);

  // An unset stats provider answers the kStats probe with "{}".
  ASSERT_TRUE(client->Send(FrameType::kStats, "", deadline).ok());
  auto stats = client->Receive(deadline);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->type, FrameType::kStats);
  EXPECT_EQ(stats->payload, "{}");
  listener.Shutdown();
  server.Drain();
}

TEST(ConnectionTest, ReceiveDeadlineBoundsASilentPeer) {
  // The peer completes the handshake (its backlog holds it) but never
  // reads or answers — Receive must return Timeout, not hang.
  SaturatedListener peer;
  ASSERT_TRUE(peer.Init());
  auto client = Connection::Connect("127.0.0.1", peer.port(), 500.0);
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE(
      client->Send(FrameType::kPing, "", Deadline::AfterMillis(500.0)).ok());
  StopWatch timer;
  auto frame = client->Receive(Deadline::AfterMillis(100.0));
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kTimeout);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

/// Answers every partial query with an empty result.
class EmptyPartialHandler : public PartialHandler {
 public:
  Result<PartialResult> HandlePartial(const PartialQuery&) override {
    return PartialResult{};
  }
};

TEST(ConnectionTest, ShardListenerSurvivesAHostileCount) {
  // A hostile count inside an intact frame answers an Error frame and
  // keeps the connection: the shard still serves Ping and well-formed
  // queries.
  EmptyPartialHandler handler;
  Listener listener(/*server=*/nullptr);
  listener.set_partial_handler(&handler);
  ASSERT_TRUE(listener.Start().ok());
  auto client = Connection::Connect("127.0.0.1", listener.port(), 1000.0);
  ASSERT_TRUE(client.ok()) << client.status().message();
  const Deadline deadline = Deadline::AfterMillis(30000.0);

  const auto rejected =
      client->Call(FrameType::kPartialQuery, HostileGroupedQuery(), deadline);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError)
      << rejected.status().message();
  EXPECT_TRUE(client->connected());

  const auto pong = client->Call(FrameType::kPing, "", deadline);
  ASSERT_TRUE(pong.ok()) << pong.status().message();
  EXPECT_EQ(pong->type, FrameType::kPong);
  const auto answered = client->Call(
      FrameType::kPartialQuery, SerializePartialQuery(SampleGroupedQuery()),
      deadline);
  ASSERT_TRUE(answered.ok()) << answered.status().message();
  EXPECT_EQ(answered->type, FrameType::kPartialResult);
  EXPECT_EQ(listener.stats().protocol_errors, 1u);
  listener.Shutdown();
}

TEST(ConnectionTest, ErrorFrameCarryingOkIsAParseError) {
  // A peer that answers its first frame with an Error frame whose status
  // is OK — a contradiction Call must not pass off as success.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);
  std::thread peer([listen_fd] {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    Connection conn(fd);
    const Deadline deadline = Deadline::AfterMillis(30000.0);
    if (conn.Receive(deadline).ok()) {
      (void)conn.Send(FrameType::kError, ErrorPayload(Status::OK()), deadline);
      (void)conn.Receive(deadline);  // Until the client hangs up.
    }
  });

  // No ASSERT until the peer is joined: shutting the listening socket
  // down unblocks its accept(2) if the connect failed.
  auto client =
      Connection::Connect("127.0.0.1", ntohs(addr.sin_port), 1000.0);
  const Status outcome =
      client.ok()
          ? client->Call(FrameType::kPing, "", Deadline::AfterMillis(30000.0))
                .status()
          : client.status();
  if (client.ok()) client->Close();
  ::shutdown(listen_fd, SHUT_RDWR);
  peer.join();
  ::close(listen_fd);
  EXPECT_EQ(outcome.code(), StatusCode::kParseError) << outcome.message();
}

// ---------------------------------------------------------------------
// Listener lifecycle: connection churn, stream ends, Shutdown, and a
// full fd table.
// ---------------------------------------------------------------------

/// This process's virtual size in KiB (VmSize in /proc/self/status).
long VmSizeKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

/// One connect/Ping/close cycle.
Status PingOnce(uint16_t port) {
  MUVE_ASSIGN_OR_RETURN(Connection client,
                        Connection::Connect("127.0.0.1", port, 5000.0));
  MUVE_ASSIGN_OR_RETURN(
      Frame pong,
      client.Call(FrameType::kPing, "", Deadline::AfterMillis(5000.0)));
  if (pong.type != FrameType::kPong) return Status::ParseError("not a Pong");
  return Status::OK();
}

TEST(ListenerLifecycleTest, ConnectionChurnKeepsVirtualSizeFlat) {
  // Every finished connection thread is joined, so its stack (8 MiB of
  // address space by default) is released instead of kept until
  // Shutdown: 256 sequential connections must not grow the process.
  Listener listener(/*server=*/nullptr);
  ASSERT_TRUE(listener.Start().ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(PingOnce(listener.port()).ok());
  const long before_kib = VmSizeKiB();
  ASSERT_GT(before_kib, 0);
  for (int i = 0; i < 256; ++i) {
    const Status status = PingOnce(listener.port());
    ASSERT_TRUE(status.ok()) << "cycle " << i << ": " << status.message();
  }
  const long growth_kib = VmSizeKiB() - before_kib;
  RecordProperty("vmsize_growth_kib", static_cast<int>(growth_kib));
  EXPECT_LT(growth_kib, 64 * 1024) << "VmSize grew " << growth_kib << " KiB";
  listener.Shutdown();
  EXPECT_EQ(listener.stats().connections_accepted, 264u);
  EXPECT_EQ(listener.stats().protocol_errors, 0u);
}

TEST(ListenerLifecycleTest, OnlyACloseMidFrameIsAProtocolError) {
  Listener listener(/*server=*/nullptr);
  ASSERT_TRUE(listener.Start().ok());
  // A closes between frames: the orderly end of a stream.
  auto clean = Connection::Connect("127.0.0.1", listener.port(), 5000.0);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_TRUE(
      clean->Call(FrameType::kPing, "", Deadline::AfterMillis(5000.0)).ok());
  clean->Close();
  // B closes after three bytes of a frame header: a broken stream.
  auto broken = Connection::Connect("127.0.0.1", listener.port(), 5000.0);
  ASSERT_TRUE(broken.ok()) << broken.status().message();
  ASSERT_EQ(::send(broken->fd(), "\x05\x00\x00", 3, MSG_NOSIGNAL), 3);
  broken->Close();

  const Deadline deadline = Deadline::AfterMillis(5000.0);
  while (listener.stats().protocol_errors == 0 && !deadline.Expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shutdown joins both connection threads, so the counts are final.
  listener.Shutdown();
  const ListenerStats stats = listener.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(ListenerLifecycleTest, ShutdownClosesAndJoinsIdleLiveConnections) {
  Listener listener(/*server=*/nullptr);
  ASSERT_TRUE(listener.Start().ok());
  constexpr int kClients = 4;
  std::vector<Connection> clients;
  for (int i = 0; i < kClients; ++i) {
    auto client = Connection::Connect("127.0.0.1", listener.port(), 5000.0);
    ASSERT_TRUE(client.ok()) << client.status().message();
    // Answered, so the connection's thread is live and idle in Receive.
    ASSERT_TRUE(
        client->Call(FrameType::kPing, "", Deadline::AfterMillis(5000.0))
            .ok());
    clients.push_back(std::move(*client));
  }
  listener.Shutdown();
  // Every server-side end was closed: each client reads an orderly EOF.
  for (Connection& client : clients) {
    const auto frame = client.Receive(Deadline::AfterMillis(5000.0));
    ASSERT_FALSE(frame.ok());
    EXPECT_TRUE(client.peer_closed()) << frame.status().message();
  }
  const ListenerStats stats = listener.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ListenerLifecycleTest, AcceptLoopSurvivesAFullFdTable) {
  Listener listener(/*server=*/nullptr);
  ASSERT_TRUE(listener.Start().ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port());

  // The client sockets exist before the limit drops: connect(2) needs no
  // new fd, so they can still dial into a full table.
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_GE(clients.back(), 0);
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 64);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  // Take every free fd below the limit, so accept(2) fails with EMFILE.
  std::vector<int> fillers;
  for (int fd = ::dup(clients[0]); fd >= 0; fd = ::dup(clients[0])) {
    fillers.push_back(fd);
  }
  int connected = 0;
  for (int fd : clients) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      ++connected;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  for (int fd : clients) ::close(fd);
  ASSERT_GT(connected, 1);

  // The table has room again: the listener must still be accepting.
  const Status pinged = PingOnce(listener.port());
  EXPECT_TRUE(pinged.ok()) << pinged.message();
  listener.Shutdown();
}

}  // namespace
}  // namespace muve::net
