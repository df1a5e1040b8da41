#include "phonetics/double_metaphone.h"

#include <cctype>
#include <initializer_list>

namespace muve::phonetics {

namespace {

/// Stateful encoder for one word; follows the structure of Lawrence
/// Philips' reference implementation (ASCII subset — MUVE encodes SQL
/// identifiers and English constants, which are ASCII).
class Encoder {
 public:
  Encoder(std::string_view word, size_t max_length)
      : max_length_(max_length) {
    word_.reserve(word.size());
    for (char c : word) {
      if (std::isalpha(static_cast<unsigned char>(c))) {
        word_.push_back(
            static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
      }
    }
    length_ = word_.size();
    last_ = length_ == 0 ? 0 : length_ - 1;
    // Pad so lookahead never falls off the end.
    word_.append(5, ' ');
  }

  MetaphoneCode Run();

 private:
  char CharAt(size_t pos) const {
    if (pos >= word_.size()) return ' ';
    return word_[pos];
  }

  bool IsVowel(size_t pos) const {
    const char c = CharAt(pos);
    return c == 'A' || c == 'E' || c == 'I' || c == 'O' || c == 'U' ||
           c == 'Y';
  }

  /// True when the substring of `length` chars starting at `start` equals
  /// any of `options`.
  bool StringAt(size_t start, size_t length,
                std::initializer_list<const char*> options) const {
    if (start > word_.size()) return false;
    const std::string_view view(word_.data() + start, length);
    for (const char* option : options) {
      if (view == option) return true;
    }
    return false;
  }

  bool Contains(std::initializer_list<const char*> needles) const {
    const std::string_view view(word_.data(), length_);
    for (const char* needle : needles) {
      if (view.find(needle) != std::string_view::npos) return true;
    }
    return false;
  }

  bool SlavoGermanic() const {
    return Contains({"W", "K", "CZ", "WITZ"});
  }

  void Add(const char* primary, const char* secondary) {
    primary_ += primary;
    secondary_ += secondary;
  }

  void Add(const char* both) { Add(both, both); }

  bool Done() const {
    return primary_.size() >= max_length_ &&
           secondary_.size() >= max_length_;
  }

  void HandleC(size_t& current);
  void HandleG(size_t& current);

  size_t max_length_;
  std::string word_;
  size_t length_ = 0;
  size_t last_ = 0;
  std::string primary_;
  std::string secondary_;
};

void Encoder::HandleC(size_t& current) {
  // Various Germanic contexts: "ACH" where not preceded by vowel etc.
  if (current > 1 && !IsVowel(current - 2) &&
      StringAt(current - 1, 3, {"ACH"}) &&
      CharAt(current + 2) != 'I' &&
      (CharAt(current + 2) != 'E' ||
       StringAt(current - 2, 6, {"BACHER", "MACHER"}))) {
    Add("K");
    current += 2;
    return;
  }
  // Special case "caesar".
  if (current == 0 && StringAt(current, 6, {"CAESAR"})) {
    Add("S");
    current += 2;
    return;
  }
  // Italian "chianti".
  if (StringAt(current, 4, {"CHIA"})) {
    Add("K");
    current += 2;
    return;
  }
  if (StringAt(current, 2, {"CH"})) {
    // "michael"
    if (current > 0 && StringAt(current, 4, {"CHAE"})) {
      Add("K", "X");
      current += 2;
      return;
    }
    // Greek roots, e.g. "chemistry", "chorus".
    if (current == 0 &&
        (StringAt(current + 1, 5, {"HARAC", "HARIS"}) ||
         StringAt(current + 1, 3, {"HOR", "HYM", "HIA", "HEM"})) &&
        !StringAt(0, 5, {"CHORE"})) {
      Add("K");
      current += 2;
      return;
    }
    // Germanic/Greek "ch" -> K.
    if ((Contains({"VAN ", "VON "}) || StringAt(0, 3, {"SCH"})) ||
        StringAt(current == 0 ? 0 : current - 2, 6,
                 {"ORCHES", "ARCHIT", "ORCHID"}) ||
        StringAt(current + 2, 1, {"T", "S"}) ||
        ((StringAt(current == 0 ? 0 : current - 1, 1,
                   {"A", "O", "U", "E"}) ||
          current == 0) &&
         StringAt(current + 2, 1,
                  {"L", "R", "N", "M", "B", "H", "F", "V", "W", " "}))) {
      Add("K");
    } else if (current > 0) {
      if (StringAt(0, 2, {"MC"})) {
        Add("K");
      } else {
        Add("X", "K");
      }
    } else {
      Add("X");
    }
    current += 2;
    return;
  }
  // "czerny"
  if (StringAt(current, 2, {"CZ"}) &&
      !(current >= 2 && StringAt(current - 2, 4, {"WICZ"}))) {
    Add("S", "X");
    current += 2;
    return;
  }
  // "focaccia"
  if (StringAt(current + 1, 3, {"CIA"})) {
    Add("X");
    current += 3;
    return;
  }
  // Double 'C' but not "McClellan".
  if (StringAt(current, 2, {"CC"}) &&
      !(current == 1 && CharAt(0) == 'M')) {
    if (StringAt(current + 2, 1, {"I", "E", "H"}) &&
        !StringAt(current + 2, 2, {"HU"})) {
      // "bellocchio" but not "bacchus".
      if ((current == 1 && CharAt(current - 1) == 'A') ||
          StringAt(current == 0 ? 0 : current - 1, 5,
                   {"UCCEE", "UCCES"})) {
        Add("KS");
      } else {
        Add("X");
      }
      current += 3;
      return;
    }
    // "Pierce's rule": CC -> K.
    Add("K");
    current += 2;
    return;
  }
  if (StringAt(current, 2, {"CK", "CG", "CQ"})) {
    Add("K");
    current += 2;
    return;
  }
  if (StringAt(current, 2, {"CI", "CE", "CY"})) {
    // Italian vs. English.
    if (StringAt(current, 3, {"CIO", "CIE", "CIA"})) {
      Add("S", "X");
    } else {
      Add("S");
    }
    current += 2;
    return;
  }
  Add("K");
  if (StringAt(current + 1, 2, {" C", " Q", " G"})) {
    current += 3;
  } else if (StringAt(current + 1, 1, {"C", "K", "Q"}) &&
             !StringAt(current + 1, 2, {"CE", "CI"})) {
    current += 2;
  } else {
    current += 1;
  }
}

void Encoder::HandleG(size_t& current) {
  if (CharAt(current + 1) == 'H') {
    if (current > 0 && !IsVowel(current - 1)) {
      Add("K");
      current += 2;
      return;
    }
    if (current == 0) {
      // "ghislane", "ghiradelli".
      if (CharAt(current + 2) == 'I') {
        Add("J");
      } else {
        Add("K");
      }
      current += 2;
      return;
    }
    // Parker's rule (with some further refinements): e.g., "hugh".
    if ((current > 1 && StringAt(current - 2, 1, {"B", "H", "D"})) ||
        (current > 2 && StringAt(current - 3, 1, {"B", "H", "D"})) ||
        (current > 3 && StringAt(current - 4, 1, {"B", "H"}))) {
      current += 2;
      return;
    }
    // "laugh", "cough", "rough", "tough".
    if (current > 2 && CharAt(current - 1) == 'U' &&
        StringAt(current - 3, 1, {"C", "G", "L", "R", "T"})) {
      Add("F");
    } else if (current > 0 && CharAt(current - 1) != 'I') {
      Add("K");
    }
    current += 2;
    return;
  }
  if (CharAt(current + 1) == 'N') {
    if (current == 1 && IsVowel(0) && !SlavoGermanic()) {
      Add("KN", "N");
    } else if (!StringAt(current + 2, 2, {"EY"}) &&
               CharAt(current + 1) != 'Y' && !SlavoGermanic()) {
      // Not e.g. "cagney".
      Add("N", "KN");
    } else {
      Add("KN");
    }
    current += 2;
    return;
  }
  // "tagliaro".
  if (StringAt(current + 1, 2, {"LI"}) && !SlavoGermanic()) {
    Add("KL", "L");
    current += 2;
    return;
  }
  // -ges-, -gep-, -gel- at beginning.
  if (current == 0 &&
      (CharAt(current + 1) == 'Y' ||
       StringAt(current + 1, 2,
                {"ES", "EP", "EB", "EL", "EY", "IB", "IL", "IN", "IE",
                 "EI", "ER"}))) {
    Add("K", "J");
    current += 2;
    return;
  }
  // -ger-, -gy-.
  if ((StringAt(current + 1, 2, {"ER"}) || CharAt(current + 1) == 'Y') &&
      !StringAt(0, 6, {"DANGER", "RANGER", "MANGER"}) &&
      !(current > 0 && StringAt(current - 1, 1, {"E", "I"})) &&
      !(current > 0 && StringAt(current - 1, 3, {"RGY", "OGY"}))) {
    Add("K", "J");
    current += 2;
    return;
  }
  // Italian, e.g. "biaggi".
  if (StringAt(current + 1, 1, {"E", "I", "Y"}) ||
      (current > 0 && StringAt(current - 1, 4, {"AGGI", "OGGI"}))) {
    // Germanic.
    if (Contains({"VAN ", "VON "}) || StringAt(0, 3, {"SCH"}) ||
        StringAt(current + 1, 2, {"ET"})) {
      Add("K");
    } else if (StringAt(current + 1, 4, {"IER "}) ||
               (current + 4 >= length_ &&
                StringAt(current + 1, 3, {"IER"}))) {
      // Always soft if French ending.
      Add("J");
    } else {
      Add("J", "K");
    }
    current += 2;
    return;
  }
  Add("K");
  current += CharAt(current + 1) == 'G' ? 2 : 1;
}

MetaphoneCode Encoder::Run() {
  MetaphoneCode result;
  if (length_ == 0) return result;

  size_t current = 0;

  // Skip silent initial letters.
  if (StringAt(0, 2, {"GN", "KN", "PN", "WR", "PS"})) {
    current += 1;
  }
  // Initial 'X' is pronounced 'Z' == 'S' (e.g., "Xavier").
  if (CharAt(0) == 'X') {
    Add("S");
    current += 1;
  }

  while (!Done() && current < length_) {
    switch (CharAt(current)) {
      case 'A':
      case 'E':
      case 'I':
      case 'O':
      case 'U':
      case 'Y':
        if (current == 0) Add("A");
        current += 1;
        break;

      case 'B':
        Add("P");
        current += CharAt(current + 1) == 'B' ? 2 : 1;
        break;

      case 'C':
        HandleC(current);
        break;

      case 'D':
        if (StringAt(current, 2, {"DG"})) {
          if (StringAt(current + 2, 1, {"I", "E", "Y"})) {
            // "edge".
            Add("J");
            current += 3;
          } else {
            // "edgar".
            Add("TK");
            current += 2;
          }
        } else if (StringAt(current, 2, {"DT", "DD"})) {
          Add("T");
          current += 2;
        } else {
          Add("T");
          current += 1;
        }
        break;

      case 'F':
        Add("F");
        current += CharAt(current + 1) == 'F' ? 2 : 1;
        break;

      case 'G':
        HandleG(current);
        break;

      case 'H':
        // Only keep if first & before vowel or between two vowels.
        if ((current == 0 || IsVowel(current - 1)) && IsVowel(current + 1)) {
          Add("H");
          current += 2;
        } else {
          current += 1;
        }
        break;

      case 'J':
        // Spanish, e.g. "jose", "san jacinto".
        if (StringAt(current, 4, {"JOSE"}) || Contains({"SAN "})) {
          if ((current == 0 && CharAt(current + 4) == ' ') ||
              Contains({"SAN "})) {
            Add("H");
          } else {
            Add("J", "H");
          }
          current += 1;
          break;
        }
        if (current == 0 && !StringAt(current, 4, {"JOSE"})) {
          Add("J", "A");  // e.g. "Yankelovich" / "Jankelowicz".
        } else if (IsVowel(current - 1) && !SlavoGermanic() &&
                   (CharAt(current + 1) == 'A' ||
                    CharAt(current + 1) == 'O')) {
          Add("J", "H");
        } else if (current == last_) {
          Add("J", "");
        } else if (!StringAt(current + 1, 1,
                             {"L", "T", "K", "S", "N", "M", "B", "Z"}) &&
                   !(current > 0 &&
                     StringAt(current - 1, 1, {"S", "K", "L"}))) {
          Add("J");
        }
        current += CharAt(current + 1) == 'J' ? 2 : 1;
        break;

      case 'K':
        Add("K");
        current += CharAt(current + 1) == 'K' ? 2 : 1;
        break;

      case 'L':
        if (CharAt(current + 1) == 'L') {
          // Spanish, e.g. "cabrillo", "gallegos".
          if ((current == length_ - 3 &&
               current > 0 &&
               StringAt(current - 1, 4, {"ILLO", "ILLA", "ALLE"})) ||
              ((StringAt(last_ == 0 ? 0 : last_ - 1, 2, {"AS", "OS"}) ||
                StringAt(last_, 1, {"A", "O"})) &&
               current > 0 && StringAt(current - 1, 4, {"ALLE"}))) {
            Add("L", "");
            current += 2;
            break;
          }
          Add("L");
          current += 2;
        } else {
          Add("L");
          current += 1;
        }
        break;

      case 'M':
        // "dumb", "thumb".
        if ((current > 0 && StringAt(current - 1, 3, {"UMB"}) &&
             (current + 1 == last_ ||
              StringAt(current + 2, 2, {"ER"}))) ||
            CharAt(current + 1) == 'M') {
          current += 2;
        } else {
          current += 1;
        }
        Add("M");
        break;

      case 'N':
        Add("N");
        current += CharAt(current + 1) == 'N' ? 2 : 1;
        break;

      case 'P':
        if (CharAt(current + 1) == 'H') {
          Add("F");
          current += 2;
        } else {
          Add("P");
          // Also account for "campbell", "raspberry".
          current += StringAt(current + 1, 1, {"P", "B"}) ? 2 : 1;
        }
        break;

      case 'Q':
        Add("K");
        current += CharAt(current + 1) == 'Q' ? 2 : 1;
        break;

      case 'R':
        // French, e.g. "rogier" — skip trailing silent R.
        if (current == last_ && !SlavoGermanic() && current > 1 &&
            StringAt(current - 2, 2, {"IE"}) &&
            !(current > 3 && StringAt(current - 4, 2, {"ME", "MA"}))) {
          Add("", "R");
        } else {
          Add("R");
        }
        current += CharAt(current + 1) == 'R' ? 2 : 1;
        break;

      case 'S':
        // Silent in "isle", "carlisle".
        if (current > 0 && StringAt(current - 1, 3, {"ISL", "YSL"})) {
          current += 1;
          break;
        }
        // "sugar".
        if (current == 0 && StringAt(current, 5, {"SUGAR"})) {
          Add("X", "S");
          current += 1;
          break;
        }
        if (StringAt(current, 2, {"SH"})) {
          // Germanic.
          if (StringAt(current + 1, 4,
                       {"HEIM", "HOEK", "HOLM", "HOLZ"})) {
            Add("S");
          } else {
            Add("X");
          }
          current += 2;
          break;
        }
        // Italian & Armenian.
        if (StringAt(current, 3, {"SIO", "SIA"}) ||
            StringAt(current, 4, {"SIAN"})) {
          if (!SlavoGermanic()) {
            Add("S", "X");
          } else {
            Add("S");
          }
          current += 3;
          break;
        }
        // German & Anglicizations, e.g. "smith" / "schmidt".
        if ((current == 0 &&
             StringAt(current + 1, 1, {"M", "N", "L", "W"})) ||
            StringAt(current + 1, 1, {"Z"})) {
          Add("S", "X");
          current += StringAt(current + 1, 1, {"Z"}) ? 2 : 1;
          break;
        }
        if (StringAt(current, 2, {"SC"})) {
          // Schlesinger's rule.
          if (CharAt(current + 2) == 'H') {
            // Dutch origin, e.g. "school", "schooner".
            if (StringAt(current + 3, 2,
                         {"OO", "ER", "EN", "UY", "ED", "EM"})) {
              // "schermerhorn", "schenker".
              if (StringAt(current + 3, 2, {"ER", "EN"})) {
                Add("X", "SK");
              } else {
                Add("SK");
              }
              current += 3;
              break;
            }
            if (current == 0 && !IsVowel(3) && CharAt(3) != 'W') {
              Add("X", "S");
            } else {
              Add("X");
            }
            current += 3;
            break;
          }
          if (StringAt(current + 2, 1, {"I", "E", "Y"})) {
            Add("S");
            current += 3;
            break;
          }
          Add("SK");
          current += 3;
          break;
        }
        // French, e.g. "resnais", "artois".
        if (current == last_ && current > 1 &&
            StringAt(current - 2, 2, {"AI", "OI"})) {
          Add("", "S");
        } else {
          Add("S");
        }
        current += StringAt(current + 1, 1, {"S", "Z"}) ? 2 : 1;
        break;

      case 'T':
        if (StringAt(current, 4, {"TION"}) ||
            StringAt(current, 3, {"TIA", "TCH"})) {
          Add("X");
          current += 3;
          break;
        }
        if (StringAt(current, 2, {"TH"}) ||
            StringAt(current, 3, {"TTH"})) {
          // Special case "thomas", "thames" or Germanic.
          if (StringAt(current + 2, 2, {"OM", "AM"}) ||
              Contains({"VAN ", "VON "}) || StringAt(0, 3, {"SCH"})) {
            Add("T");
          } else {
            Add("0", "T");  // '0' represents the "th" sound.
          }
          current += 2;
          break;
        }
        Add("T");
        current += StringAt(current + 1, 1, {"T", "D"}) ? 2 : 1;
        break;

      case 'V':
        Add("F");
        current += CharAt(current + 1) == 'V' ? 2 : 1;
        break;

      case 'W':
        // Can also be in the middle of a word (e.g. "arnow").
        if (StringAt(current, 2, {"WR"})) {
          Add("R");
          current += 2;
          break;
        }
        if (current == 0 &&
            (IsVowel(current + 1) || StringAt(current, 2, {"WH"}))) {
          if (IsVowel(current + 1)) {
            // "Wasserman" may be "Vasserman".
            Add("A", "F");
          } else {
            Add("A");
          }
        }
        // "Arnow" may be "Arnoff".
        if ((current == last_ && current > 0 && IsVowel(current - 1)) ||
            (current > 0 &&
             StringAt(current - 1, 5,
                      {"EWSKI", "EWSKY", "OWSKI", "OWSKY"})) ||
            StringAt(0, 3, {"SCH"})) {
          Add("", "F");
          current += 1;
          break;
        }
        // Polish, e.g. "filipowicz".
        if (StringAt(current, 4, {"WICZ", "WITZ"})) {
          Add("TS", "FX");
          current += 4;
          break;
        }
        current += 1;
        break;

      case 'X':
        // French, e.g. "breaux".
        if (!(current == last_ && current > 2 &&
              (StringAt(current - 3, 3, {"IAU", "EAU"}) ||
               StringAt(current - 2, 2, {"AU", "OU"})))) {
          Add("KS");
        }
        current += StringAt(current + 1, 1, {"C", "X"}) ? 2 : 1;
        break;

      case 'Z':
        // Chinese pinyin, e.g. "zhao".
        if (CharAt(current + 1) == 'H') {
          Add("J");
          current += 2;
          break;
        }
        if (StringAt(current + 1, 2, {"ZO", "ZI", "ZA"}) ||
            (SlavoGermanic() && current > 0 &&
             CharAt(current - 1) != 'T')) {
          Add("S", "TS");
        } else {
          Add("S");
        }
        current += CharAt(current + 1) == 'Z' ? 2 : 1;
        break;

      default:
        current += 1;
        break;
    }
  }

  if (primary_.size() > max_length_) primary_.resize(max_length_);
  if (secondary_.size() > max_length_) secondary_.resize(max_length_);
  result.primary = primary_;
  result.secondary = secondary_;
  return result;
}

}  // namespace

MetaphoneCode DoubleMetaphone::Encode(std::string_view word) const {
  Encoder encoder(word, max_code_length_);
  return encoder.Run();
}

}  // namespace muve::phonetics
