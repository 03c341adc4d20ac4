// sim::parse_number — the one reader of numbers in text inputs: CLI flags,
// scenario strings, trace CSVs, checkpoint sections and environment
// variables (the rule is docs/ARCHITECTURE.md, "Numbers in text inputs").
//
// The whole string is the number. Integers are plain decimal, or bare hex
// digits where the caller passes base 16 (digests); a leading '-' is
// accepted only when T is signed, and the value must fit T. Doubles are
// decimal or exponent notation and must be finite. No '+', no whitespace,
// no "0x" prefix. Parsing straight into the destination field's own type
// is what keeps a value from narrowing on the way in.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace opera::sim {

// Stores the value of `text` in *out and returns true, or returns false
// and leaves *out untouched. `base` applies to integers only.
template <class T>
  requires std::integral<T> || std::floating_point<T>
[[nodiscard]] bool parse_number(std::string_view text, T* out, int base = 10) {
  const char* const last = text.data() + text.size();
  T value{};
  std::from_chars_result r{};
  if constexpr (std::floating_point<T>) {
    r = std::from_chars(text.data(), last, value);
    if (r.ec == std::errc() && !std::isfinite(value)) return false;
  } else {
    r = std::from_chars(text.data(), last, value, base);
  }
  if (r.ec != std::errc() || r.ptr != last) return false;
  *out = value;
  return true;
}

// The rule for a numeric environment variable, given its getenv() value:
// unset or empty leaves `fallback`; any other value must parse as T, or
// the process exits 2 naming the variable.
template <class T>
[[nodiscard]] T env_number(const char* name, const char* value, T fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  T parsed{};
  if (!parse_number(value, &parsed)) {
    std::fprintf(stderr, "malformed value for environment variable %s: '%s'\n", name,
                 value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace opera::sim
