#include "util/atomic_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace flashcache {

namespace {

/** fsync what `path` names (`flags` adds O_DIRECTORY for a
 *  directory); false when the open, the fsync or the close fails. */
bool
syncPath(const std::string& path, int flags = 0)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | flags);
    if (fd < 0)
        return false;
    const bool synced = ::fsync(fd) == 0;
    return ::close(fd) == 0 && synced;
}

} // namespace

bool
atomicWriteFile(const std::string& path,
                const std::function<void(std::ostream&)>& writer)
{
    const std::string tmp = path + ".tmp";
    const auto discard = [&tmp] {
        std::remove(tmp.c_str());
        return false;
    };
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        writer(os);
        // close() flushes, and sets failbit when the flush or the
        // close fails.
        os.close();
        if (!os)
            return discard();
    }
    // The contents must be on the medium before the rename can make
    // them the file's; the rename is durable once the directory is.
    if (!syncPath(tmp) || std::rename(tmp.c_str(), path.c_str()) != 0)
        return discard();
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    return syncPath(dir.empty() ? "." : dir, O_DIRECTORY);
}

} // namespace flashcache
