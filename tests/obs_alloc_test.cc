/**
 * @file
 * Steady-state allocation guarantee of the tracer ring: once the
 * Tracer is constructed and its tracks named, recording spans —
 * including after the ring wraps — performs zero heap allocations
 * (global operator new/delete are replaced with counting versions,
 * as in allocation_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "obs/trace.hh"

// ---------------------------------------------------------------------
// Counting allocator overrides (global scope, required by [new.delete]).
// The replacement new uses malloc and the replacement delete frees it;
// GCC cannot see the pairing across the replacement boundary, so the
// mismatch warning is a false positive here.
// ---------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::uint64_t g_allocCount = 0;
} // namespace

void*
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    ++g_allocCount;
    return std::malloc(n ? n : 1);
}

void*
operator new[](std::size_t n, const std::nothrow_t& t) noexcept
{
    return operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace flashcache {
namespace obs {
namespace {

TEST(TracerAllocTest, RecordingNeverAllocates)
{
    Tracer t(1024); // construction preallocates the ring
    t.nameTrack(0, "disk");
    t.nameTrack(1, "client 0");
    // Warm one full lap so any lazy setup is behind us.
    for (int i = 0; i < 1024; ++i)
        t.record(0, "warm", "c", i * 1e-6, 1e-6);

    const std::uint64_t before = g_allocCount;
    // Four laps of mixed recording across tracks: wraps and drops.
    for (int i = 0; i < 1024; ++i) {
        const Seconds start = i * 1e-3;
        t.record(1, "request", "client", start, 1e-3);
        t.record(1, "compute", "client", start, 2e-4);
        t.record(0, "disk", "fg", start + 2e-4, 8e-4);
        t.record(1, "disk", "fg", start + 2e-4, 8e-4);
    }
    EXPECT_EQ(g_allocCount, before);
    EXPECT_EQ(t.size(), t.capacity());
    EXPECT_GT(t.dropped(), 0u);
}

} // namespace
} // namespace obs
} // namespace flashcache
