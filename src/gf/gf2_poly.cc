#include "gf/gf2_poly.hh"

#include <algorithm>
#include <vector>

#include "gf/gf2m.hh"
#include "util/log.hh"

namespace flashcache {

Gf2Poly
Gf2Poly::monomial(std::size_t deg)
{
    Gf2Poly p;
    p.setCoeff(deg, true);
    return p;
}

void
Gf2Poly::trim()
{
    while (!words_.empty() && words_.back() == 0)
        words_.pop_back();
}

long
Gf2Poly::degree() const
{
    if (words_.empty())
        return -1;
    const std::uint64_t top = words_.back();
    return static_cast<long>((words_.size() - 1) * 64 +
                             (63 - __builtin_clzll(top)));
}

bool
Gf2Poly::coeff(std::size_t i) const
{
    const std::size_t w = i / 64;
    if (w >= words_.size())
        return false;
    return (words_[w] >> (i % 64)) & 1;
}

void
Gf2Poly::setCoeff(std::size_t i, bool v)
{
    const std::size_t w = i / 64;
    if (w >= words_.size()) {
        if (!v)
            return;
        words_.resize(w + 1, 0);
    }
    if (v)
        words_[w] |= (1ull << (i % 64));
    else
        words_[w] &= ~(1ull << (i % 64));
    trim();
}

Gf2Poly
Gf2Poly::operator+(const Gf2Poly& o) const
{
    Gf2Poly r;
    r.words_.resize(std::max(words_.size(), o.words_.size()), 0);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
        std::uint64_t w = 0;
        if (i < words_.size())
            w ^= words_[i];
        if (i < o.words_.size())
            w ^= o.words_[i];
        r.words_[i] = w;
    }
    r.trim();
    return r;
}

Gf2Poly
Gf2Poly::operator*(const Gf2Poly& o) const
{
    Gf2Poly r;
    if (isZero() || o.isZero())
        return r;
    const long dr = degree() + o.degree();
    r.words_.resize(static_cast<std::size_t>(dr) / 64 + 1, 0);
    for (std::size_t i = 0; i < words_.size(); ++i) {
        std::uint64_t w = words_[i];
        while (w) {
            const int b = __builtin_ctzll(w);
            w &= w - 1;
            const std::size_t shift = i * 64 + static_cast<std::size_t>(b);
            // r ^= o << shift
            const std::size_t ws = shift / 64;
            const unsigned bs = shift % 64;
            for (std::size_t j = 0; j < o.words_.size(); ++j) {
                r.words_[ws + j] ^= o.words_[j] << bs;
                if (bs && ws + j + 1 < r.words_.size())
                    r.words_[ws + j + 1] ^= o.words_[j] >> (64 - bs);
            }
        }
    }
    r.trim();
    return r;
}

Gf2Poly
Gf2Poly::mod(const Gf2Poly& divisor) const
{
    if (divisor.isZero())
        panic("Gf2Poly division by zero polynomial");
    Gf2Poly r = *this;
    const long dd = divisor.degree();
    if (r.degree() < dd)
        return r;

    // Word-scan long division: walk the dividend's words from the
    // top, clearing each set bit of degree >= dd with one aligned
    // XOR of the divisor. The shifted divisor's top bit lands exactly
    // on the bit being cleared, so it never touches a higher word and
    // the buffer never needs to grow; unlike the bit-serial loop this
    // does no degree()/trim()/resize work per step.
    const std::size_t dwords = divisor.words_.size();
    for (std::size_t w = r.words_.size(); w-- > 0;) {
        for (;;) {
            const std::uint64_t word = r.words_[w];
            if (!word)
                break;
            const int b = 63 - __builtin_clzll(word);
            const long deg = static_cast<long>(w * 64 + b);
            if (deg < dd)
                break;
            const std::size_t shift = static_cast<std::size_t>(deg - dd);
            const std::size_t ws = shift / 64;
            const unsigned bs = shift % 64;
            for (std::size_t j = 0; j < dwords; ++j) {
                r.words_[ws + j] ^= divisor.words_[j] << bs;
                if (bs && ws + j + 1 < r.words_.size())
                    r.words_[ws + j + 1] ^= divisor.words_[j] >> (64 - bs);
            }
        }
    }
    r.trim();
    return r;
}

Gf2Poly
minimalPolynomial(const GaloisField& gf, std::uint32_t power)
{
    // Multiply (x + alpha^e) over the conjugacy class
    // {power * 2^j mod (2^m - 1)} into coefficients over GF(2^m),
    // lowest degree first; the product collapses to {0,1} coeffs.
    const std::uint64_t n = gf.groupOrder();
    std::vector<GaloisField::Elem> prod{1};
    std::uint64_t e = power % n;
    do {
        const GaloisField::Elem root =
            gf.alphaPow(static_cast<std::int64_t>(e));
        prod.push_back(0);
        for (std::size_t i = prod.size() - 1; i > 0; --i)
            prod[i] = prod[i - 1] ^ gf.mul(root, prod[i]);
        prod[0] = gf.mul(root, prod[0]);
        e = (e * 2) % n;
    } while (e != power % n);

    Gf2Poly out;
    for (std::size_t i = 0; i < prod.size(); ++i) {
        if (prod[i] > 1)
            panic("minimal polynomial has non-binary coefficient");
        if (prod[i])
            out.setCoeff(i, true);
    }
    return out;
}

} // namespace flashcache
