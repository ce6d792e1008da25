/**
 * @file
 * google-benchmark microbenchmarks for the ECC substrate: GF
 * arithmetic, CRC32, and the real BCH encode/decode paths the
 * section 4.1.1 software-vs-accelerator argument rests on.
 *
 * Each hot-path benchmark reports bytes/second over the 2 KB page so
 * runs are comparable across machines. The dispatched paths (the
 * widest CLMUL fold the host has) run beside each kernel tier called
 * directly (*Wide: 512-bit VPCLMULQDQ, *Clmul: 128-bit PCLMULQDQ,
 * *Table: slicing-by-8) and the retained bit-serial reference
 * implementations, so one run shows every kernel. A tier the host
 * lacks reports an error instead of a time.
 * End-to-end host cost is measured by `python3 perfbench/run.py`.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/clmul.hh"
#include "ecc/crc32.hh"
#include "gf/gf2m.hh"
#include "support/bch_reference.hh"
#include "support/crc32_bytewise.hh"
#include "util/rng.hh"

using namespace flashcache;

namespace {

constexpr std::int64_t kPageBytes = 2048;

std::vector<std::uint8_t>
randomPage(unsigned seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> page(kPageBytes);
    for (auto& b : page)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    return page;
}

void
BM_GfMul(benchmark::State& state)
{
    GaloisField gf(15);
    Rng rng(1);
    std::vector<GaloisField::Elem> a(1024), b(1024);
    for (int i = 0; i < 1024; ++i) {
        a[i] = static_cast<GaloisField::Elem>(
            1 + rng.uniformInt(gf.size() - 1));
        b[i] = static_cast<GaloisField::Elem>(
            1 + rng.uniformInt(gf.size() - 1));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gf.mul(a[i & 1023], b[i & 1023]));
        ++i;
    }
}
BENCHMARK(BM_GfMul);

void
BM_Crc32Page(benchmark::State& state)
{
    const auto page = randomPage(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(page.data(), page.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_Crc32Page);

/** One CRC kernel over a page. */
void
crcPageWith(benchmark::State& state,
            std::uint32_t (*kernel)(std::uint32_t, const std::uint8_t*,
                                    std::size_t))
{
    const auto page = randomPage(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel(0, page.data(), page.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}

void
BM_Crc32PageWide(benchmark::State& state)
{
    if (!haveWideClmul()) {
        state.SkipWithError("host has no AVX-512F and VPCLMULQDQ");
        return;
    }
    crcPageWith(state, crc32UpdateWide);
}
BENCHMARK(BM_Crc32PageWide);

void
BM_Crc32PageClmul(benchmark::State& state)
{
    if (!haveClmul()) {
        state.SkipWithError("host has no PCLMULQDQ");
        return;
    }
    crcPageWith(state, crc32UpdateClmul);
}
BENCHMARK(BM_Crc32PageClmul);

void
BM_Crc32PageTable(benchmark::State& state)
{
    // The slicing-by-8 kernel, the dispatched path on hosts without
    // PCLMULQDQ.
    crcPageWith(state, crc32UpdateTable);
}
BENCHMARK(BM_Crc32PageTable);

void
BM_Crc32PageBytewise(benchmark::State& state)
{
    // One-table reference: the seed implementation, for comparison
    // against the kernels above.
    const auto page = randomPage(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32Bytewise(page.data(), page.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_Crc32PageBytewise);

void
BM_BchEncodePage(benchmark::State& state)
{
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    const auto data = randomPage(3);
    std::vector<std::uint8_t> parity(code.parityBytes());
    for (auto _ : state) {
        code.encode(data.data(), parity.data());
        benchmark::DoNotOptimize(parity.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchEncodePage)->Arg(1)->Arg(4)->Arg(8)->Arg(12);

/** One encoder kernel over a page at strength state.range(0). */
void
encodePageWith(benchmark::State& state,
               void (BchCode::*kernel)(const std::uint8_t*, std::uint8_t*)
                   const)
{
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    const auto data = randomPage(3);
    std::vector<std::uint8_t> parity(code.parityBytes());
    for (auto _ : state) {
        (code.*kernel)(data.data(), parity.data());
        benchmark::DoNotOptimize(parity.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}

void
BM_BchEncodePageWide(benchmark::State& state)
{
    if (!haveWideClmul()) {
        state.SkipWithError("host has no AVX-512F and VPCLMULQDQ");
        return;
    }
    encodePageWith(state, &BchCode::encodeWide);
}
BENCHMARK(BM_BchEncodePageWide)->Arg(4);

void
BM_BchEncodePageClmul(benchmark::State& state)
{
    if (!haveClmul()) {
        state.SkipWithError("host has no PCLMULQDQ");
        return;
    }
    encodePageWith(state, &BchCode::encodeClmul);
}
BENCHMARK(BM_BchEncodePageClmul)->Arg(4);

void
BM_BchEncodePageTable(benchmark::State& state)
{
    // The slicing-by-8 kernel, the dispatched path on hosts without
    // PCLMULQDQ and for codes with r > 64.
    encodePageWith(state, &BchCode::encodeTable);
}
BENCHMARK(BM_BchEncodePageTable)->Arg(4);

void
BM_BchEncodePageReference(benchmark::State& state)
{
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    const auto data = randomPage(3);
    std::vector<std::uint8_t> parity(code.parityBytes());
    for (auto _ : state) {
        encodeReference(code, data.data(), parity.data());
        benchmark::DoNotOptimize(parity.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchEncodePageReference)->Arg(1)->Arg(12);

void
BM_BchDecodePageClean(benchmark::State& state)
{
    // The steady-state path of the simulator: most pages read clean,
    // so decode cost is syndrome cost.
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(4);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(data.data(), parity.data()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageClean)->Arg(1)->Arg(4)->Arg(8)->Arg(12);

void
BM_BchDecodePageTErrors(benchmark::State& state)
{
    // Full pipeline with t injected errors: syndromes +
    // Berlekamp-Massey + Chien + flips. A successful decode restores
    // the buffers, so errors are re-injected in place each iteration
    // without any per-iteration copying.
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(5);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    for (auto _ : state) {
        for (unsigned e = 0; e < t; ++e)
            data[37 + 131 * e] ^= 2;
        const auto res = code.decode(data.data(), parity.data());
        benchmark::DoNotOptimize(res);
        if (!res.ok || res.correctedBits != t)
            state.SkipWithError("decode failed");
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageTErrors)->Arg(1)->Arg(4)->Arg(8)->Arg(12);

void
BM_BchDecodePageOneError(benchmark::State& state)
{
    // The real-data read path's common correction case: a single bit
    // error mid-page at the cache's working strengths.
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(6);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    for (auto _ : state) {
        data[kPageBytes / 2] ^= 8;
        const auto res = code.decode(data.data(), parity.data());
        benchmark::DoNotOptimize(res);
        if (!res.ok || res.correctedBits != 1)
            state.SkipWithError("decode failed");
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageOneError)->Arg(4)->Arg(8);

void
BM_BchDecodePageOneErrorCold(benchmark::State& state)
{
    // BM_BchDecodePageOneError as the simulator meets it: between
    // reads, payload traffic evicts the codec's tables from cache.
    // Each iteration first streams an 8 MiB buffer and then reads the
    // page back in, as the controller's copy-out does (both untimed),
    // then times one single-error decode. The untimed sweep dominates
    // the wall time, so the iteration count is fixed rather than grown
    // to --benchmark_min_time of decode time.
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(6);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    std::vector<std::uint64_t> sweep((8u << 20) / sizeof(std::uint64_t));
    std::uint64_t stamp = 0;
    for (auto _ : state) {
        for (auto& w : sweep)
            w += ++stamp;
        std::uint64_t touch = 0;
        for (const std::uint8_t b : data)
            touch += b;
        benchmark::DoNotOptimize(touch);
        benchmark::ClobberMemory();
        data[kPageBytes / 2] ^= 8;
        const auto start = std::chrono::steady_clock::now();
        const auto res = code.decode(data.data(), parity.data());
        benchmark::DoNotOptimize(res);
        const auto stop = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(stop - start).count());
        if (!res.ok || res.correctedBits != 1)
            state.SkipWithError("decode failed");
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageOneErrorCold)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(2000);

void
BM_BchDecodePageTwoErrors(benchmark::State& state)
{
    // Two bit errors: the closed-form degree-2 locator (m = 15 is odd)
    // instead of a Chien sweep.
    const auto t = static_cast<unsigned>(state.range(0));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(6);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    for (auto _ : state) {
        data[kPageBytes / 3] ^= 8;
        data[kPageBytes / 2] ^= 1;
        const auto res = code.decode(data.data(), parity.data());
        benchmark::DoNotOptimize(res);
        if (!res.ok || res.correctedBits != 2)
            state.SkipWithError("decode failed");
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageTwoErrors)->Arg(4);

void
BM_BchDecodePageReference(benchmark::State& state)
{
    // Seed bit-serial decoder on the same workload shapes.
    const auto t = static_cast<unsigned>(state.range(0));
    const auto nerr = static_cast<unsigned>(state.range(1));
    BchCode code(15, t, kPageBytes * 8);
    auto data = randomPage(5);
    std::vector<std::uint8_t> parity(code.parityBytes());
    code.encode(data.data(), parity.data());
    for (auto _ : state) {
        for (unsigned e = 0; e < nerr; ++e)
            data[37 + 131 * e] ^= 2;
        const auto res = decodeReference(code, data.data(), parity.data());
        benchmark::DoNotOptimize(res);
        if (!res.ok)
            state.SkipWithError("decode failed");
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPageBytes);
}
BENCHMARK(BM_BchDecodePageReference)->Args({4, 0})->Args({12, 12});

} // namespace

BENCHMARK_MAIN();
