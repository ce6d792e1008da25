/**
 * @file
 * GF(2^m) finite-field arithmetic via log/antilog tables.
 *
 * The BCH codec in the flash memory controller (paper section 4.1)
 * works over GF(2^15): natural code length n = 2^15 - 1 = 32767 bits
 * covers a shortened 2 KB (16384-bit) flash page, and each corrected
 * error costs m = 15 parity bits, so t = 12 needs 180 bits = 22.5
 * bytes — the paper's "maximum of 23 bytes ... of check bits".
 */

#ifndef FLASHCACHE_GF_GF2M_HH
#define FLASHCACHE_GF_GF2M_HH

#include <cstdint>
#include <vector>

namespace flashcache {

/**
 * The field GF(2^m), 2 <= m <= 16, with table-driven multiply/divide.
 *
 * Elements are integers in [0, 2^m). Addition is XOR. alpha (the
 * element 2) is primitive: alpha^i for i in [0, 2^m-2) enumerates the
 * multiplicative group.
 */
class GaloisField
{
  public:
    using Elem = std::uint32_t;

    /** Build the field from the built-in primitive polynomial of
     *  degree m. */
    explicit GaloisField(unsigned m);

    unsigned m() const { return m_; }

    /** Field size 2^m. */
    Elem size() const { return q_; }

    /** Multiplicative group order 2^m - 1. */
    Elem groupOrder() const { return q_ - 1; }

    /** The primitive polynomial used to build the field. */
    std::uint32_t primitivePoly() const { return poly_; }

    /** Multiply two field elements. */
    Elem
    mul(Elem a, Elem b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return exp_[log_[a] + log_[b]];
    }

    /**
     * mul() by shift-and-add and reduction, touching neither table:
     * for code that runs too rarely to find the tables in cache.
     */
    Elem
    mulCarryless(Elem a, Elem b) const
    {
        Elem prod = 0;
        for (unsigned i = 0; i < m_; ++i)
            prod ^= (a << i) & (0u - ((b >> i) & 1u));
        // x^m = polyLow_: fold the bits above x^m down until none
        // remain; each pass lowers the top degree.
        for (Elem hi = prod >> m_; hi != 0; hi = prod >> m_) {
            prod &= q_ - 1;
            for (Elem bits = polyLow_; bits != 0; bits &= bits - 1)
                prod ^= hi << __builtin_ctz(bits);
        }
        return prod;
    }

    /** a / b. @pre b != 0 */
    Elem div(Elem a, Elem b) const;

    /** alpha^e (alpha is the primitive element 2). */
    Elem
    alphaPow(std::int64_t e) const
    {
        const std::int64_t n = groupOrder();
        std::int64_t r = e % n;
        if (r < 0)
            r += n;
        return exp_[static_cast<std::size_t>(r)];
    }

    /** Discrete log base alpha. @pre a != 0 */
    unsigned
    logAlpha(Elem a) const
    {
        return log_[a];
    }

    /**
     * alpha^e for an already-nonnegative exponent e < 2*(2^m - 1).
     *
     * The exp table is doubled, so the sum of two discrete logs can
     * be looked up directly without a modulo — this is the inner-loop
     * primitive of the byte-wise BCH syndrome and Chien paths.
     */
    Elem
    alphaPowUnreduced(std::uint32_t e) const
    {
        return exp_[e];
    }

    /** a^2 via the Frobenius map (one table lookup). */
    Elem
    square(Elem a) const
    {
        if (a == 0)
            return 0;
        return exp_[2u * log_[a]];
    }

  private:
    unsigned m_;
    Elem q_;
    std::uint32_t poly_;
    Elem polyLow_; ///< poly_ without its x^m term
    std::vector<Elem> exp_; ///< alpha^i, doubled to skip a mod.
    std::vector<unsigned> log_;
};

} // namespace flashcache

#endif // FLASHCACHE_GF_GF2M_HH
