/**
 * @file
 * Interface the flash disk cache uses to reach the backing disk.
 *
 * The cache core calls read() on misses and write() when flushing or
 * evicting dirty pages; the system simulator implements it with the
 * DiskModel, and tests implement it with instrumented fakes.
 * FixedLatencyStore is the disk of the benches and tests that count
 * only flash-side work.
 */

#ifndef FLASHCACHE_CORE_BACKING_STORE_HH
#define FLASHCACHE_CORE_BACKING_STORE_HH

#include <cstdint>

#include "flash/flash_spec.hh"
#include "util/types.hh"

namespace flashcache {

/**
 * Abstract page-granular backing store.
 */
class BackingStore
{
  public:
    virtual ~BackingStore() = default;

    /** Fetch one page. @return access latency. */
    virtual Seconds read(Lba lba) = 0;

    /** Persist one page. @return access latency. */
    virtual Seconds write(Lba lba) = 0;
};

/** A disk that answers every access in Table 3's average access
 *  latency (4.2 ms) and records nothing. */
class FixedLatencyStore : public BackingStore
{
  public:
    Seconds read(Lba) override { return DiskSpec().avgAccessLatency; }
    Seconds write(Lba) override { return DiskSpec().avgAccessLatency; }
};

/**
 * A backing store that also moves page payloads, required by the
 * cache's real-data mode (FlashCacheConfig::realData). The plain
 * read()/write() latency hooks remain the timing source; these
 * variants carry the bytes.
 */
class PayloadBackingStore : public BackingStore
{
  public:
    /** Fetch one page's contents into `out` (page-size bytes). */
    virtual Seconds readData(Lba lba, std::uint8_t* out) = 0;

    /** Persist one page's contents. */
    virtual Seconds writeData(Lba lba, const std::uint8_t* data) = 0;

    /** Fault-aware fetch; defaults to the plain hook, never failing. */
    virtual Seconds
    readData(Lba lba, std::uint8_t* out, bool& failed)
    {
        failed = false;
        return readData(lba, out);
    }

    /**
     * Persist one page tagged with the flash program sequence number
     * of the copy being flushed (a T10-DIF-style generation tag).
     * Crash recovery compares on-flash sequence numbers against
     * generation() so a surviving-but-superseded flash copy of an
     * already-flushed page can never resurrect stale data. Stores
     * that do not track generations fall back to writeData() and
     * recovery simply trusts flash (safe when flushes are rare or
     * recovery is never used).
     */
    virtual Seconds
    writeTagged(Lba lba, const std::uint8_t* data, std::uint64_t seq,
                bool& failed)
    {
        (void)seq;
        failed = false;
        return writeData(lba, data);
    }

    /** Generation tag of the store's copy of `lba`; 0 = untagged. */
    virtual std::uint64_t generation(Lba lba) const
    {
        (void)lba;
        return 0;
    }

    /** Highest generation tag ever written; recovery restarts the
     *  flash sequence counter above it. */
    virtual std::uint64_t maxGeneration() const { return 0; }
};

} // namespace flashcache

#endif // FLASHCACHE_CORE_BACKING_STORE_HH
