/**
 * @file
 * Warm-restart walkthrough: the section 3 management tables live on
 * disk and load back into DRAM at boot, so a server reboot does not
 * cool the flash cache. This example fills a cache, "reboots" by
 * saving and restoring device + cache state to files, and shows that
 * the hot set still hits without any disk traffic.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/flash_cache.hh"
#include "util/atomic_file.hh"
#include "util/rng.hh"

using namespace flashcache;

namespace {

class CountingDisk : public BackingStore
{
  public:
    Seconds
    read(Lba) override
    {
        ++reads;
        return milliseconds(4.2);
    }

    Seconds write(Lba) override { return milliseconds(4.2); }

    std::uint64_t reads = 0;
};

FlashGeometry
geometry()
{
    return FlashGeometry::forMlcCapacity(mib(16));
}

/** A fresh directory of this run's own under the system temp
 *  directory, removed with everything in it on scope exit, so runs
 *  at the same time never share state files. */
class RunDirectory
{
  public:
    RunDirectory()
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "flashcache.XXXXXX").string();
        if (!mkdtemp(tmpl.data())) {
            std::perror("mkdtemp");
            std::exit(1);
        }
        path_ = tmpl;
    }

    ~RunDirectory()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    RunDirectory(const RunDirectory&) = delete;
    RunDirectory& operator=(const RunDirectory&) = delete;

    std::string
    file(const char* name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

} // namespace

int
main()
{
    CellLifetimeModel lifetime;
    const RunDirectory dir;
    const std::string dev_path = dir.file("device.state");
    const std::string cache_path = dir.file("tables.state");

    // --- before the "reboot": warm the cache ---
    {
        FlashDevice device(geometry(), FlashTiming(), lifetime, 2026);
        FlashMemoryController controller(device);
        CountingDisk disk;
        FlashCache cache(controller, disk);

        Rng rng(1);
        ZipfSampler zipf(6000, 1.1);
        for (int i = 0; i < 300000; ++i) {
            const Lba l = zipf.sample(rng);
            if (rng.bernoulli(0.2))
                cache.write(l);
            else
                cache.read(l);
        }
        cache.flushAll(); // dirty data must be safe before power-off
        std::printf("before reboot: %.1f%% read hit rate, %llu pages "
                    "cached, %llu disk reads\n",
                    100.0 * cache.stats().fgst.reads.hitRate(),
                    static_cast<unsigned long long>(cache.validPages()),
                    static_cast<unsigned long long>(disk.reads));

        // Atomic saves (temp file + rename): a crash mid-save leaves
        // the previous snapshot intact, never a torn one.
        if (!atomicWriteFile(dev_path, [&](std::ostream& os) {
                device.saveState(os);
            }) ||
            !atomicWriteFile(cache_path, [&](std::ostream& os) {
                cache.saveState(os);
            })) {
            std::fprintf(stderr, "state save failed\n");
            return 1;
        }
    }

    // --- after the "reboot": fresh objects, tables loaded ---
    FlashDevice device(geometry(), FlashTiming(), lifetime, 2026);
    FlashMemoryController controller(device);
    CountingDisk disk;
    FlashCache cache(controller, disk);
    {
        std::ifstream dev_in(dev_path, std::ios::binary);
        device.loadState(dev_in);
        std::ifstream cache_in(cache_path, std::ios::binary);
        cache.loadState(cache_in);
    }

    Rng rng(2);
    ZipfSampler zipf(6000, 1.1);
    RatioStat warm;
    for (int i = 0; i < 50000; ++i) {
        if (cache.read(zipf.sample(rng)).hit)
            warm.hit();
        else
            warm.miss();
    }
    std::printf("after reboot:  %.1f%% read hit rate immediately, "
                "%llu disk reads for the re-misses\n",
                100.0 * warm.hitRate(),
                static_cast<unsigned long long>(disk.reads));
    std::printf("\nA cold cache would have started at a ~0%% hit rate "
                "and paid one 4.2 ms disk access per miss\nwhile "
                "re-warming; the persisted tables (about 2%% of the "
                "flash size, section 3) skip that.\n");
    return 0;
}
