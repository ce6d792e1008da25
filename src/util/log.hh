/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * panic() is for internal invariant violations (a flashcache bug);
 * fatal() is for user/configuration errors that make continuing
 * meaningless; warn() reports a condition and continues. Each prints
 * one prefixed line on stderr.
 */

#ifndef FLASHCACHE_UTIL_LOG_HH
#define FLASHCACHE_UTIL_LOG_HH

#include <string>

namespace flashcache {

/** Abort with a message; use for internal invariant violations. */
[[noreturn]] void panic(const std::string& msg);

/** Exit(1) with a message; use for invalid user configuration. */
[[noreturn]] void fatal(const std::string& msg);

/** Print a warning and continue. */
void warn(const std::string& msg);

} // namespace flashcache

#endif // FLASHCACHE_UTIL_LOG_HH
