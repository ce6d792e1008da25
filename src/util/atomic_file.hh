/**
 * @file
 * Crash-safe file replacement: write to a temporary sibling, fsync
 * it, rename it over the target and fsync the directory. A power cut
 * or error mid-write leaves the previous file contents intact — a
 * state snapshot is either the old version or the complete new one,
 * never a torn mix.
 */

#ifndef FLASHCACHE_UTIL_ATOMIC_FILE_HH
#define FLASHCACHE_UTIL_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

namespace flashcache {

/**
 * Atomically replace `path`: `writer` streams the new contents into
 * `path + ".tmp"`, which is renamed over `path` only when every write,
 * the close and the fsync succeeded; the parent directory is fsynced
 * after the rename. On a failure before the rename the temporary is
 * removed (unless it could not be created) and the original file is
 * untouched.
 *
 * @return true when the new contents are durably in place; false
 *         when any step failed, including the directory's fsync after
 *         the rename.
 */
bool atomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& writer);

} // namespace flashcache

#endif // FLASHCACHE_UTIL_ATOMIC_FILE_HH
