/**
 * @file
 * Numeric flag parsing shared by the command-line tools: a flag's
 * argument is one plain decimal integer inside the flag's range, and
 * anything else is a usage error (exit status 2, pinned by the ctest
 * exit-code cases) — never a silent zero or a wrap to a narrower type.
 */
#ifndef HAAC_TOOLS_CLI_ARGS_H
#define HAAC_TOOLS_CLI_ARGS_H

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace haac {

/**
 * Parse @p text, the argument of @p tool's flag @p flag, as an integer
 * in [@p lo, @p hi]; otherwise print why and exit 2.
 */
inline uint64_t
parseCount(const char *tool, const char *flag, const char *text,
           uint64_t lo, uint64_t hi)
{
    uint64_t v = 0;
    const char *end = text + std::strlen(text);
    const auto [stop, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || stop != end || *text == '\0' || v < lo ||
        v > hi) {
        std::cerr << tool << ": " << flag << " expects an integer in ["
                  << lo << ", " << hi << "], not '" << text << "'\n";
        std::exit(2);
    }
    return v;
}

} // namespace haac

#endif // HAAC_TOOLS_CLI_ARGS_H
