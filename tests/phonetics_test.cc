#include <gtest/gtest.h>

#include "phonetics/double_metaphone.h"
#include "phonetics/phonetic_index.h"
#include "phonetics/similarity.h"

namespace muve::phonetics {
namespace {

// ---------------------------------------------------------------------
// Double Metaphone golden values (Philips' reference behaviour).
// ---------------------------------------------------------------------

struct MetaphoneGolden {
  const char* word;
  const char* primary;
  const char* secondary;
};

class DoubleMetaphoneGoldenTest
    : public ::testing::TestWithParam<MetaphoneGolden> {};

TEST_P(DoubleMetaphoneGoldenTest, MatchesGolden) {
  const DoubleMetaphone encoder;
  const MetaphoneCode code = encoder.Encode(GetParam().word);
  EXPECT_EQ(code.primary, GetParam().primary) << GetParam().word;
  EXPECT_EQ(code.secondary, GetParam().secondary) << GetParam().word;
}

INSTANTIATE_TEST_SUITE_P(
    Golden, DoubleMetaphoneGoldenTest,
    ::testing::Values(MetaphoneGolden{"smith", "SM0", "XMT"},
                      MetaphoneGolden{"smyth", "SM0", "XMT"},
                      MetaphoneGolden{"thomas", "TMS", "TMS"},
                      MetaphoneGolden{"knight", "NT", "NT"},
                      MetaphoneGolden{"jose", "HS", "HS"},
                      MetaphoneGolden{"john", "JN", "AN"},
                      MetaphoneGolden{"white", "AT", "AT"},
                      MetaphoneGolden{"cabrillo", "KPRL", "KPR"},
                      MetaphoneGolden{"brooklyn", "PRKL", "PRKL"},
                      MetaphoneGolden{"queens", "KNS", "KNS"},
                      MetaphoneGolden{"quincy", "KNS", "KNS"}));

TEST(DoubleMetaphoneTest, HomophonesShareCodes) {
  const DoubleMetaphone encoder;
  EXPECT_EQ(encoder.Encode("smith").primary,
            encoder.Encode("smyth").primary);
  EXPECT_EQ(encoder.Encode("queens").primary,
            encoder.Encode("quincy").primary);
}

TEST(DoubleMetaphoneTest, EmptyAndNonAlpha) {
  const DoubleMetaphone encoder;
  EXPECT_EQ(encoder.Encode("").primary, "");
  EXPECT_EQ(encoder.Encode("123 !?").primary, "");
  // Non-alphabetic characters are ignored.
  EXPECT_EQ(encoder.Encode("sm-ith").primary,
            encoder.Encode("smith").primary);
}

TEST(DoubleMetaphoneTest, CaseInsensitive) {
  const DoubleMetaphone encoder;
  EXPECT_EQ(encoder.Encode("BROOKLYN"), encoder.Encode("brooklyn"));
}

TEST(DoubleMetaphoneTest, MaxLengthRespected) {
  const DoubleMetaphone encoder(2);
  EXPECT_LE(encoder.Encode("mississippi").primary.size(), 2u);
}

TEST(DoubleMetaphoneTest, DefaultLengthPrimaryCode) {
  EXPECT_EQ(DoubleMetaphone().Encode("smith").primary, "SM0");
}

// ---------------------------------------------------------------------
// Jaro / Jaro-Winkler.
// ---------------------------------------------------------------------

TEST(JaroTest, KnownValues) {
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822222, 1e-5);
}

TEST(JaroTest, IdentityAndDisjoint) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
}

TEST(JaroTest, Symmetry) {
  const char* words[] = {"martha", "marhta", "dixon", "dickson", "a", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), JaroSimilarity(b, a));
    }
  }
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("DWAYNE", "DUANE"), 0.84, 1e-5);
}

TEST(JaroWinklerTest, PrefixBonusNeverLowers) {
  const char* words[] = {"brooklyn", "brookline", "bronx", "queens"};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_GE(JaroWinklerSimilarity(a, b), JaroSimilarity(a, b) - 1e-12);
    }
  }
}

TEST(JaroWinklerTest, RangeIsUnitInterval) {
  const char* words[] = {"a", "ab", "abc", "xyz", "brooklyn", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      const double s = JaroWinklerSimilarity(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(PhoneticSimilarityTest, HomophonesScoreHigherThanUnrelated) {
  EXPECT_GT(PhoneticSimilarity("queens", "quincy"),
            PhoneticSimilarity("queens", "manhattan"));
  EXPECT_GT(PhoneticSimilarity("boston", "austin"),
            PhoneticSimilarity("boston", "seattle"));
}

TEST(PhoneticSimilarityTest, IdentityIsOne) {
  EXPECT_DOUBLE_EQ(PhoneticSimilarity("brooklyn", "brooklyn"), 1.0);
}

// ---------------------------------------------------------------------
// PhoneticIndex.
// ---------------------------------------------------------------------

TEST(PhoneticIndexTest, TopKOrdersBySimilarity) {
  PhoneticIndex index;
  for (const char* entry :
       {"queens", "quincy", "brooklyn", "bronx", "manhattan"}) {
    index.Add(entry);
  }
  const std::vector<PhoneticMatch> matches = index.TopK("queens", 3);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].entry, "queens");
  EXPECT_EQ(matches[1].entry, "quincy");
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i].similarity, matches[i - 1].similarity);
  }
}

TEST(PhoneticIndexTest, ExcludeExactMatch) {
  PhoneticIndex index;
  for (const char* entry : {"queens", "quincy", "brooklyn"}) index.Add(entry);
  const std::vector<PhoneticMatch> matches =
      index.TopK("queens", 3, /*include_exact=*/false);
  for (const PhoneticMatch& match : matches) {
    EXPECT_NE(match.entry, "queens");
  }
  EXPECT_EQ(matches[0].entry, "quincy");
}

TEST(PhoneticIndexTest, DuplicatesIgnored) {
  PhoneticIndex index;
  index.Add("queens");
  index.Add("Queens");
  index.Add("QUEENS");
  EXPECT_EQ(index.size(), 1u);
}

TEST(PhoneticIndexTest, KLargerThanIndex) {
  PhoneticIndex index;
  index.Add("a");
  index.Add("b");
  EXPECT_EQ(index.TopK("a", 10).size(), 2u);
}

TEST(PhoneticIndexTest, EmptyIndex) {
  PhoneticIndex index;
  EXPECT_TRUE(index.TopK("anything", 5).empty());
}

}  // namespace
}  // namespace muve::phonetics
