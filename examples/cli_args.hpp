// Strict number parsing for the example CLIs: a flag value is taken only
// when all of it parses and it lies in the flag's range, so a typo ends as
// a usage error instead of a silent 0 or a wrapped "-1".

#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace dredbox::cli {

/// Upper bound on every count flag; the configs' own validation (spine
/// radix and so on) applies tighter limits.
constexpr std::uint64_t kMaxCount = 4096;
/// Upper bound on every time flag: 1000 s of simulated time.
constexpr double kMaxMs = 1e6;

/// Parses all of `text` as an unsigned integer in [lo, hi]. Rejects a
/// sign (strtoull would wrap "-1"), trailing characters and overflow.
inline bool parse_count(const char* text, std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < lo || value > hi) return false;
  out = value;
  return true;
}

/// Parses all of `text` as a number in [lo, hi] (NaN fails the range).
inline bool parse_real(const char* text, double lo, double hi, double& out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(value >= lo && value <= hi)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace dredbox::cli
