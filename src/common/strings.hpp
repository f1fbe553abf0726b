// Small string utilities used by CSV I/O, serialization, and reporting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mphpc {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Formats a double with enough digits to round-trip exactly.
[[nodiscard]] std::string format_double(double v);

/// Formats a double with fixed precision for human-readable reports.
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Parses a double; throws mphpc::ParseError on failure or trailing junk.
[[nodiscard]] double parse_double(std::string_view s);

/// Parses a non-negative integer; throws mphpc::ParseError on failure.
[[nodiscard]] long long parse_int(std::string_view s);

/// parse_int into an int: a value outside int's range throws
/// mphpc::ParseError instead of wrapping.
[[nodiscard]] int parse_int32(std::string_view s);

/// FNV-1a 64-bit hash of a byte string — a content checksum for cache
/// manifests (not cryptographic: detects corruption and staleness, not
/// adversaries).
[[nodiscard]] std::uint64_t fnv1a_64(std::string_view s) noexcept;

/// Formats a 64-bit value as 16 lowercase hex digits.
[[nodiscard]] std::string format_hex64(std::uint64_t v);

}  // namespace mphpc
