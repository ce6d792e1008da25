/**
 * @file
 * Figure 6(a): BCH decode latency (syndrome + Chien components)
 * versus the number of correctable errors, from the accelerator
 * timing model (100 MHz embedded core, 16 GF lanes, 2 KB block).
 *
 * The output is the model alone, so it is the same on every run and
 * host. The section 4.1.1 observation that motivated the accelerator
 * (a software decoder is orders of magnitude slower) is host-timed by
 * micro_bch, which decodes real pages with both the bit-serial and
 * the word-parallel codec.
 */

#include <cstdio>

#include "ecc/ecc_timing.hh"

using namespace flashcache;

int
main()
{
    const EccTimingModel model;

    std::printf("=== Figure 6(a): accelerated BCH decode latency vs "
                "code strength ===\n\n");
    std::printf("%4s %14s %14s %14s %12s\n", "t", "syndrome (us)",
                "chien (us)", "berlekamp(us)", "total (us)");
    for (unsigned t = 2; t <= 11; ++t) {
        const BchLatency lat = model.decodeLatency(t);
        std::printf("%4u %14.1f %14.1f %14.2f %12.1f\n", t,
                    lat.syndrome * 1e6, lat.chien * 1e6,
                    lat.berlekamp * 1e6, lat.total() * 1e6);
    }
    std::printf("\nExpected shape: ~linear in t, roughly 60-400 us over "
                "the range (Table 3: 58-400 us),\nBerlekamp negligible "
                "(omitted from the paper's figure).\n");

    std::printf("\nThe paper measured 0.1-1 s per page of software "
                "decode on a 3.4 GHz Pentium 4\n(unoptimized C), "
                "motivating the ~1 mm^2 hardware accelerator the timing "
                "model above\nrepresents; micro_bch times this "
                "host's bit-serial and word-parallel decoders.\n");
    return 0;
}
