/**
 * @file
 * Binary BCH code: systematic encoder and full algebraic decoder.
 *
 * This is the error-correction engine of the paper's programmable
 * flash memory controller (section 4.1). The controller instantiates
 * shortened codes over GF(2^15) for a 2 KB page with t = 1..12
 * correctable bits; the implementation below is generic over field
 * degree, strength and data length so tests can exercise small codes
 * exhaustively.
 *
 * Decoding pipeline: syndrome computation, Berlekamp-Massey to find
 * the error locator polynomial, Chien search to find its roots, and
 * in-place bit flips (binary code, so error magnitude is always 1).
 *
 * The hot paths share one allocation-free O(n) pass, the remainder
 * data(x) * x^r mod g(x), with kernels chosen at run time:
 *  - PCLMULQDQ fold (x86-64 hosts where haveClmul(), codes with
 *    r <= 64 and a data length that is a nonzero multiple of 16
 *    bytes; hasClmulFold()). It reduces modulo G = g(x) x^(64-r), a
 *    monic degree-64 polynomial, so every folding constant fits one
 *    64-bit half-lane. Little-endian 64-bit words are already in
 *    coefficient order, so the data is read from its highest-degree
 *    end with no bit reflection: four 128-bit lanes fold 512 bits per
 *    step (x^512, x^576 mod G), merge into one (x^128, x^192 mod G),
 *    which folds 128 bits per step; the lane is multiplied by x^64
 *    (x^64, x^128 mod G), Barrett-reduced with mu = floor(x^128 / G)
 *    and shifted down by 64 - r. The constructor derives every
 *    constant from g(x).
 *  - The same fold 512 bits wide (hosts where haveWideClmul(), data
 *    of 256 bytes or more): four zmm accumulators fold 2048 bits per
 *    step (x^2048, x^2112 mod G), merge into one zmm with 512-bit
 *    folds, and one per-lane fold (x^128 .. x^448 mod G) moves the
 *    upper three lanes onto the lowest, which finishes as above.
 *  - Slicing-by-8 (every other code or host; the structure of
 *    crc32Update's table path): the parity state is kept left-aligned
 *    in W = ceil(r/64) 64-bit words, and each step folds 8 data bytes
 *    through eight constructor-built 256-entry tables
 *    T_k[b] = b(x) x^(8k) x^r mod g,
 *        R' = (R_lo << 64) ^ XOR_k T_k[byte_k(R_hi ^ D)],
 *    compiled for W = 1..4 (r <= 256; wider codes run the same kernel
 *    with a runtime word count). A byte LFSR on the same state covers
 *    the dataBits/8 mod 8 tail bytes.
 *  - encode() is that remainder.
 *  - decode() and isCodewordClean() compute encode(data) ^ parity,
 *    the received word mod g. A zero result is a clean page and ends
 *    the decode after one O(n) pass. Otherwise the t odd syndromes
 *    are evaluated over the <= r-bit remainder only, which is exact
 *    because g(alpha^j) = 0 for j = 1..2t, one table row per
 *    remainder byte.
 *  - A single error (S_1 != 0 and S_j = S_1^j for the odd j, checked
 *    with table-free multiplies) is located at p = log S_1 without
 *    Berlekamp-Massey; p outside the shortened word is uncorrectable.
 *    This is exactly the degree-1 locator 1 + S_1 x that
 *    Berlekamp-Massey would return. Otherwise the even syndromes
 *    follow from S_2j = S_j^2 and Berlekamp-Massey runs.
 *  - A degree-2 locator over a field of odd degree m is solved in
 *    closed form: x = (sigma_1/sigma_2) y turns it into
 *    y^2 + y = sigma_2/sigma_1^2, solved by the half-trace. Larger locators, and degree 2 when m is
 *    even, go to a Chien search that steps each coefficient in the
 *    log domain and exits once all roots are found.
 *  - Berlekamp-Massey and Chien scratch live in a per-code workspace
 *    sized at construction, so steady-state encode/decode perform no
 *    heap allocation.
 *
 * The original bit-serial implementation lives on in the tests as
 * encodeReference()/decodeReference() (tests/support/bch_reference.hh),
 * the oracle for the differential tests.
 *
 * The workspace makes encode/decode logically const but not
 * re-entrant: one BchCode must not decode concurrently from two
 * threads (the simulator is single-threaded).
 */

#ifndef FLASHCACHE_ECC_BCH_HH
#define FLASHCACHE_ECC_BCH_HH

#include <cstdint>
#include <vector>

#include "gf/gf2_poly.hh"
#include "gf/gf2m.hh"

namespace flashcache {

/** Outcome of a BCH decode attempt. */
struct BchDecodeResult
{
    /**
     * Positions are reported through a fixed-size inline buffer so a
     * decode never heap-allocates; every code the system builds has
     * t far below this bound.
     */
    static constexpr unsigned kMaxReportedPositions = 64;

    /**
     * True when the decoder believes the word was corrected (or was
     * already clean). A false value means the error count certainly
     * exceeded t. Note that with > t errors a BCH decoder may also
     * miscorrect silently, which is exactly why the paper pairs BCH
     * with a CRC32 detector (section 4.1.2).
     */
    bool ok = false;

    /** Number of bit positions flipped by the decoder. */
    unsigned correctedBits = 0;

    /**
     * Codeword bit positions that were flipped; the first
     * min(correctedBits, kMaxReportedPositions) entries are valid.
     */
    std::uint32_t positions[kMaxReportedPositions] = {};
};

/**
 * A t-error-correcting binary BCH code, shortened to a given data
 * length.
 *
 * Codeword layout (polynomial coefficient order): parity bits occupy
 * coefficients [0, parityBits()), data bits occupy
 * [parityBits(), parityBits() + dataBits()). Byte i, bit b of a user
 * buffer maps to data bit 8*i + b.
 */
class BchCode
{
  public:
    /**
     * Construct the code.
     *
     * @param m        Field degree; natural length is 2^m - 1.
     * @param t        Designed correction strength in bits.
     * @param data_bits Shortened data length in bits (multiple of 8).
     */
    BchCode(unsigned m, unsigned t, std::uint32_t data_bits);

    unsigned m() const { return gf_.m(); }
    unsigned t() const { return t_; }
    std::uint32_t dataBits() const { return dataBits_; }
    std::uint32_t parityBits() const { return parityBits_; }
    std::uint32_t parityBytes() const { return (parityBits_ + 7) / 8; }
    std::uint32_t codewordBits() const { return dataBits_ + parityBits_; }

    const GaloisField& field() const { return gf_; }
    const Gf2Poly& generator() const { return gen_; }

    /**
     * Systematic encode: parity = data(x) x^r mod g(x) through the
     * widest CLMUL fold the host has (encodeWide, encodeClmul), else
     * slicing-by-8 (encodeTable); no allocation.
     *
     * @param data   dataBits()/8 bytes of payload.
     * @param parity Out: parityBytes() bytes of check bits.
     */
    void encode(const std::uint8_t* data, std::uint8_t* parity) const;

    /** encode() through the slicing-by-8 kernel, on any host. */
    void encodeTable(const std::uint8_t* data, std::uint8_t* parity) const;

    /**
     * encode() through the 128-bit PCLMULQDQ fold when hasClmulFold(),
     * else through encodeTable(). @pre haveClmul(); a build without
     * the CLMUL kernels always runs encodeTable().
     */
    void encodeClmul(const std::uint8_t* data, std::uint8_t* parity) const;

    /**
     * encode() through the 512-bit VPCLMULQDQ fold when hasClmulFold()
     * and the data is at least 256 bytes, else through encodeClmul().
     * @pre haveWideClmul(); a build without the CLMUL kernels always
     * runs encodeTable().
     */
    void encodeWide(const std::uint8_t* data, std::uint8_t* parity) const;

    /**
     * True when the code's shape admits the CLMUL fold: r <= 64 and a
     * data length that is a nonzero multiple of 16 bytes. Says nothing
     * about the host; see haveClmul().
     */
    bool hasClmulFold() const { return clmulFold_; }

    /**
     * Decode and correct in place (remainder-first syndromes,
     * workspace Berlekamp-Massey, closed-form or incremental Chien
     * root finding; no allocation).
     *
     * @param data   dataBits()/8 bytes, corrected on success.
     * @param parity parityBytes() bytes, corrected on success.
     */
    BchDecodeResult decode(std::uint8_t* data, std::uint8_t* parity) const;

    /**
     * Check without correcting: a zero remainder of the received word
     * mod g(x) means the word is (believed) clean. Exposed for the
     * controller's error-monitoring path.
     */
    bool isCodewordClean(const std::uint8_t* data,
                         const std::uint8_t* parity) const;

  private:
    static void
    flipBit(std::uint8_t* buf, std::uint32_t i)
    {
        buf[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
    }

    /**
     * data(x) * x^r mod g(x) into out[0, parityBytes()) for a state of
     * kW words (kW = 0: parityWords_ at run time).
     */
    template <unsigned kW>
    void remainderWords(const std::uint8_t* data, std::uint8_t* out) const;

    /**
     * The received word mod g(x) into ws_.remBytes.
     * @return true when it is zero: every syndrome vanishes and the
     *         word is clean.
     */
    bool reduceWord(const std::uint8_t* data,
                    const std::uint8_t* parity) const;

    /** The t odd syndromes of ws_.remBytes into ws_.synd. */
    void oddSyndromes() const;

    /** The t even syndromes, squares of the odd ones, into ws_.synd. */
    void evenSyndromes() const;

    /**
     * Berlekamp-Massey over ws_.synd into ws_.sigma (no allocation).
     * @return number of coefficients of sigma (degree + 1).
     */
    unsigned berlekampMassey() const;

    GaloisField gf_;
    unsigned t_;
    std::uint32_t dataBits_;
    std::uint32_t parityBits_;
    Gf2Poly gen_;

    // ---- constructor-built acceleration tables ----

    /** Words per parity state: ceil(parityBits / 64). */
    std::uint32_t parityWords_ = 0;
    /** Valid-bit mask of the last parity byte. */
    std::uint8_t lastParityMask_ = 0xFF;
    /**
     * sliceTable_[(k * 256 + b) * parityWords_ + w]: word w of
     * b(x) * x^(8k) * x^r mod g(x), left-aligned (shifted up by
     * 64 * parityWords_ - r bits), for k = 0..7.
     */
    std::vector<std::uint64_t> sliceTable_;
    /** hasClmulFold(). */
    bool clmulFold_ = false;
    /**
     * CLMUL folding constants modulo G = g(x) x^(64 - r), when
     * hasClmulFold(): x^512, x^576, x^128, x^192 and x^64 mod G, then
     * the low 64 bits of mu = floor(x^128 / G) (its x^64 term is
     * implicit). x^64 mod G is also G's low 64 bits.
     */
    std::uint64_t foldKeys_[6] = {};
    /**
     * The wide tier's further constants modulo G, when hasClmulFold():
     * x^2048, x^2112, x^256, x^320, x^384 and x^448 mod G.
     */
    std::uint64_t wideKeys_[6] = {};
    /**
     * synTable_[(i * 256 + b) * t + k] = b(alpha^j) * alpha^(8ij) for
     * the k-th odd syndrome exponent j = 2k + 1: the contribution of
     * byte b at remainder byte i to S_j, b read as a degree-7
     * polynomial. m <= 16, so every element fits 16 bits.
     */
    std::vector<std::uint16_t> synTable_;
    /** (n - j) mod n for j = 0..t: Chien per-position step. */
    std::vector<std::uint32_t> chienStepLog_;

    // ---- reusable per-code workspace (steady state: no heap) ----
    struct Workspace
    {
        std::vector<std::uint64_t> encState;       ///< state when W > 4
        std::vector<std::uint8_t> remBytes;        ///< parityBytes()
        std::vector<GaloisField::Elem> synd;       ///< 2t
        std::vector<GaloisField::Elem> sigma;      ///< BM locator
        std::vector<GaloisField::Elem> bmB, bmTmp; ///< BM scratch
        std::vector<std::uint32_t> termLog;        ///< Chien terms
        std::vector<std::uint32_t> positions;      ///< found roots
    };
    mutable Workspace ws_;
};

} // namespace flashcache

#endif // FLASHCACHE_ECC_BCH_HH
