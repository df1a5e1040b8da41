#ifndef MUVE_PHONETICS_DOUBLE_METAPHONE_H_
#define MUVE_PHONETICS_DOUBLE_METAPHONE_H_

#include <string>
#include <string_view>

namespace muve::phonetics {

/// Primary and secondary phonetic encodings of a word.
///
/// The secondary code differs from the primary only for words with
/// ambiguous pronunciation (e.g., "Schmidt" -> XMT / SMT).
struct MetaphoneCode {
  std::string primary;
  std::string secondary;

  bool operator==(const MetaphoneCode& other) const = default;
};

/// Encoder implementing Lawrence Philips' Double Metaphone algorithm
/// (C/C++ Users Journal, 1994/2000), the phonetic encoding MUVE uses to
/// find query elements that sound alike (paper §3, reference [24]).
///
/// The encoding maps English words to a small consonant-skeleton alphabet
/// so that words that are pronounced similarly receive similar (often
/// identical) codes, e.g. "Smith" and "Smyth" -> SM0/XMT.
class DoubleMetaphone {
 public:
  /// Maximum length of each emitted code (the traditional default is 4).
  explicit DoubleMetaphone(size_t max_code_length = 4)
      : max_code_length_(max_code_length) {}

  /// Encodes `word`. Non-alphabetic characters are ignored; encoding is
  /// case-insensitive. Empty input yields empty codes.
  MetaphoneCode Encode(std::string_view word) const;

 private:
  size_t max_code_length_;
};

}  // namespace muve::phonetics

#endif  // MUVE_PHONETICS_DOUBLE_METAPHONE_H_
