// Small string utilities used across the content-analysis pipeline.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace torsim::util {

/// Whether `c` is an ASCII letter: std::isalpha in the "C" locale,
/// without a library call per byte.
constexpr bool is_ascii_alpha(unsigned char c) {
  return static_cast<unsigned char>((c | 0x20) - 'a') < 26;
}

/// An ASCII letter `c` in lowercase: std::tolower in the "C" locale.
/// Requires is_ascii_alpha(c).
constexpr char ascii_letter_lower(unsigned char c) {
  return static_cast<char>(c | 0x20);
}

/// Splits on a single separator character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins with a separator string.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Tokenizes into "words": maximal runs of alphabetic characters
/// (ASCII letters), lowercased. Mirrors what a bag-of-words classifier
/// over crawled HTML text would see after tag stripping.
std::vector<std::string> tokenize_words(std::string_view text);

/// Counts words as tokenize_words would produce them, without allocating
/// the tokens (used by the "<20 words" exclusion rule).
std::size_t count_words(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

}  // namespace torsim::util
