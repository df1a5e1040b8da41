#ifndef MUVE_PHONETICS_SIMILARITY_H_
#define MUVE_PHONETICS_SIMILARITY_H_

#include <string_view>

#include "phonetics/double_metaphone.h"

namespace muve::phonetics {

/// Jaro similarity in [0, 1]; 1 means identical, 0 means no matching
/// characters.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1]: Jaro with a bonus for a common prefix
/// of up to four characters, scaled by `prefix_scale` (standard 0.1).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_scale = 0.1);

/// Jaro-Winkler similarity of two already-computed Double Metaphone codes:
/// the max over the distinct primary/secondary combinations. The shared
/// kernel behind PhoneticSimilarity and PhoneticIndex scoring, so the
/// exhaustive and indexed lookup paths round identically.
double CodeSimilarity(const MetaphoneCode& a, const MetaphoneCode& b);

/// Phonetic similarity of two words per the paper (§3): both words are
/// mapped to Double Metaphone codes and compared with Jaro-Winkler. Takes
/// the max over primary/secondary code combinations.
double PhoneticSimilarity(std::string_view a, std::string_view b);

}  // namespace muve::phonetics

#endif  // MUVE_PHONETICS_SIMILARITY_H_
