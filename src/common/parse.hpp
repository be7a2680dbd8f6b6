// Strict number parsing for user-supplied text: CLI flags, transport
// fault specs and endpoint ports. The whole token must be the number —
// no sign on a count, no leading blanks, no trailing characters — and it
// must fit its type; a double must also be finite. Anything else throws
// InvalidArgument naming `what` (the flag or key the text came from).
#pragma once

#include <cstdint>
#include <string_view>

namespace xbarlife {

/// A non-negative decimal integer that fits in 64 bits.
std::uint64_t parse_count(std::string_view text, std::string_view what);

/// A finite decimal floating-point number.
double parse_real(std::string_view text, std::string_view what);

}  // namespace xbarlife
