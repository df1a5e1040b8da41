// Deterministic fuzz-style property tests for the input-facing
// components: the SQL parser must reject malformed input with a parse
// error (never crash or throw) and round-trip what it accepts, the
// Double Metaphone encoder must be total, deterministic, and convergent
// on arbitrary byte strings, and the five wire parsers plus the frame
// length check must survive mutated messages and reach a fixed point on
// whatever they accept. All inputs derive from seeded Rngs; set
// MUVE_FUZZ_ITERS to scale the iteration counts up (the `slow` CTest
// variants do).

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "db/query.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "phonetics/double_metaphone.h"
#include "testing/fuzz_mutator.h"
#include "testing/sql_parser.h"

#ifndef MUVE_GOLDEN_DIR
#define MUVE_GOLDEN_DIR "tests/golden"
#endif

namespace muve {
namespace {

using testing::FuzzIterations;
using testing::MutateBytes;
using testing::RandomSqlQuery;
using testing::RandomWord;

TEST(SqlParserFuzzTest, MutatedInputsNeverCrash) {
  const size_t iters = FuzzIterations("MUVE_FUZZ_ITERS", 3000);
  Rng rng(0xF0551);
  size_t accepted = 0;
  for (size_t it = 0; it < iters; ++it) {
    const std::string valid = RandomSqlQuery(&rng).ToSql();
    const std::string input = MutateBytes(&rng, valid, rng.UniformInt(7));
    // The only acceptable outcomes are a query or a parse error; any
    // crash or uncaught exception fails the whole test binary.
    const Result<db::AggregateQuery> parsed = db::ParseSql(input);
    if (!parsed.ok()) continue;
    ++accepted;
    // Whatever the parser accepts must round-trip: rendering and
    // re-parsing reproduces the same query.
    const Result<db::AggregateQuery> reparsed =
        db::ParseSql(parsed->ToSql());
    ASSERT_TRUE(reparsed.ok())
        << "accepted query failed to re-parse\ninput:    " << input
        << "\nrendered: " << parsed->ToSql()
        << "\nerror:    " << reparsed.status().message();
    EXPECT_EQ(parsed->ToSql(), reparsed->ToSql()) << "input: " << input;
    EXPECT_EQ(parsed->CanonicalKey(), reparsed->CanonicalKey())
        << "input: " << input;
  }
  // Mutations are small, so a healthy fraction of inputs stays valid —
  // guards against the suite degenerating into reject-everything.
  EXPECT_GT(accepted, iters / 20);
}

TEST(SqlParserFuzzTest, ValidQueriesRoundTrip) {
  const size_t iters = FuzzIterations("MUVE_FUZZ_ITERS", 3000);
  Rng rng(0xF0552);
  for (size_t it = 0; it < iters; ++it) {
    const db::AggregateQuery query = RandomSqlQuery(&rng);
    const Result<db::AggregateQuery> parsed = db::ParseSql(query.ToSql());
    ASSERT_TRUE(parsed.ok())
        << "valid query rejected: " << query.ToSql() << "\nerror: "
        << parsed.status().message();
    EXPECT_EQ(query.CanonicalKey(), parsed->CanonicalKey())
        << "sql: " << query.ToSql();

    // CanonicalKey must not depend on predicate order.
    db::AggregateQuery shuffled = *parsed;
    rng.Shuffle(&shuffled.predicates);
    EXPECT_EQ(parsed->CanonicalKey(), shuffled.CanonicalKey())
        << "sql: " << query.ToSql();
  }
}

TEST(MetaphoneFuzzTest, DeterministicBoundedAndConvergent) {
  const size_t iters = FuzzIterations("MUVE_FUZZ_ITERS", 4000);
  const phonetics::DoubleMetaphone metaphone;
  Rng rng(0xF0553);
  for (size_t it = 0; it < iters; ++it) {
    const std::string word = RandomWord(&rng);
    const phonetics::MetaphoneCode code = metaphone.Encode(word);

    // Deterministic: encoding the same word twice yields the same codes.
    EXPECT_EQ(code, metaphone.Encode(word)) << "word: " << word;

    // Bounded output over the metaphone alphabet.
    for (const std::string* out : {&code.primary, &code.secondary}) {
      EXPECT_LE(out->size(), 4u) << "word: " << word;
      for (char c : *out) {
        EXPECT_TRUE((c >= 'A' && c <= 'Z') || c == '0')
            << "word: " << word << " code: " << *out;
      }
    }

    // Encoding is not idempotent (codes are words too, and re-encoding
    // can shorten them), but iterating must reach a fixed point fast:
    // empirically within 3 steps, asserted with headroom at 8.
    std::string current = code.primary;
    bool fixed = false;
    for (int step = 0; step < 8; ++step) {
      const std::string next = metaphone.Encode(current).primary;
      if (next == current) {
        fixed = true;
        break;
      }
      current = next;
    }
    EXPECT_TRUE(fixed) << "word: " << word
                       << " never reached a fixed point; last: " << current;
    if (fixed) {
      EXPECT_EQ(current, metaphone.Encode(current).primary)
          << "fixed point unstable for word: " << word;
    }
  }
}

// ---------------------------------------------------------------------
// Wire parsers.
// ---------------------------------------------------------------------

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MUVE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// The u32-length-prefixed blocks of a golden file.
std::vector<std::string> Blocks(const std::string& bytes) {
  std::vector<std::string> blocks;
  net::WireReader reader(bytes);
  while (!reader.exhausted()) {
    Result<std::string> block = reader.ReadString();
    if (!block.ok()) break;
    blocks.push_back(*std::move(block));
  }
  return blocks;
}

/// Every message in the three golden files, plus fresh Request and
/// ServedAnswer encodings (a finite deadline, a text request, a routed
/// answer).
std::vector<std::string> WireSeeds() {
  std::vector<std::string> seeds = Blocks(ReadGolden("partial_v1.bin"));
  for (std::string& block : Blocks(ReadGolden("wire_v1.bin"))) {
    seeds.push_back(std::move(block));
  }
  const std::string answer_bytes = ReadGolden("answer_v1.bin");
  seeds.push_back(answer_bytes);

  Request request = Request::Text("how many complaints in brooklyn");
  request.deadline = Deadline::AfterMillis(250.0);
  request.tenant_id = "fuzz";
  seeds.push_back(net::SerializeRequest(request));
  serve::ServedAnswer served;
  if (Result<MuveEngine::Answer> answer = net::ParseAnswer(answer_bytes);
      answer.ok()) {
    served.answer = *std::move(answer);
  }
  served.answer.execution.shards_dropped = 1;
  served.shared = true;
  served.queue_millis = 0.5;
  seeds.push_back(net::SerializeServedAnswer(served));
  return seeds;
}

/// Deadlines re-anchor on the clock at parse time, so the fixed point is
/// taken with them set infinite on both sides.
void ClearDeadline(Request* request) { request->deadline = Deadline(); }
void ClearDeadline(net::PartialQuery* query) { query->deadline = Deadline(); }
template <typename M>
void ClearDeadline(M*) {}

/// Parses `input`; a rejection must be a ParseError, and an accepted
/// input must reach a fixed point: S(P(S(P(x)))) == S(P(x)). Returns
/// whether the input was accepted.
template <typename M>
bool ParseReachesAFixedPoint(std::string_view input,
                             Result<M> (*parse)(std::string_view),
                             std::string (*serialize)(const M&)) {
  Result<M> first = parse(input);
  if (!first.ok()) {
    EXPECT_EQ(first.status().code(), StatusCode::kParseError)
        << first.status().message();
    return false;
  }
  ClearDeadline(&*first);
  const std::string once = serialize(*first);
  Result<M> second = parse(once);
  EXPECT_TRUE(second.ok()) << "re-encoding of an accepted input rejected: "
                           << second.status().message();
  if (second.ok()) {
    ClearDeadline(&*second);
    EXPECT_EQ(serialize(*second), once);
  }
  return true;
}

TEST(WireFuzzTest, MutatedMessagesNeverCrashAndAcceptedOnesReachAFixedPoint) {
  const size_t iters = FuzzIterations("MUVE_FUZZ_ITERS", 2000);
  const std::vector<std::string> seeds = WireSeeds();
  ASSERT_EQ(seeds.size(), 10u) << "missing golden files under "
                               << MUVE_GOLDEN_DIR;
  Rng rng(0xF0554);
  size_t accepted = 0;
  for (size_t it = 0; it < iters; ++it) {
    const std::string& seed = seeds[rng.UniformInt(seeds.size())];
    const std::string input = MutateBytes(&rng, seed, rng.UniformInt(8));
    SCOPED_TRACE(StrCat({"iteration ", std::to_string(it)}));

    // Every parser sees every input: most are the wrong message type,
    // which must fail as cleanly as a corrupted right one.
    accepted += ParseReachesAFixedPoint(input, &net::ParseRequest,
                                        &net::SerializeRequest);
    accepted += ParseReachesAFixedPoint(input, &net::ParseAnswer,
                                        &net::SerializeAnswer);
    accepted += ParseReachesAFixedPoint(input, &net::ParseServedAnswer,
                                        &net::SerializeServedAnswer);
    accepted += ParseReachesAFixedPoint(input, &net::ParsePartialQuery,
                                        &net::SerializePartialQuery);
    accepted += ParseReachesAFixedPoint(input, &net::ParsePartialResult,
                                        &net::SerializePartialResult);

    // The frame-length check: an accepted length is in range, and it
    // agrees with the frame encoder on the input as a payload.
    if (Result<uint32_t> length = net::ParseFrameLength(input); length.ok()) {
      EXPECT_GE(*length, 1u);
      EXPECT_LE(*length, net::kMaxFrameBytes);
    }
    Result<std::string> frame =
        net::EncodeFrame(net::FrameType::kAnswer, input);
    ASSERT_TRUE(frame.ok());
    Result<uint32_t> framed = net::ParseFrameLength(*frame);
    ASSERT_TRUE(framed.ok());
    EXPECT_EQ(*framed, input.size() + 1);
  }
  // Zero-edit draws keep their seed intact, so a healthy fraction parses
  // — guards against the suite degenerating into reject-everything.
  EXPECT_GT(accepted, iters / 20);
}

}  // namespace
}  // namespace muve
