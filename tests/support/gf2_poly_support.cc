#include "support/gf2_poly_support.hh"

namespace flashcache {

Gf2Poly
fromMask(std::uint64_t mask)
{
    Gf2Poly p;
    for (std::size_t i = 0; i < 64; ++i)
        if (mask & (1ull << i))
            p.setCoeff(i, true);
    return p;
}

GaloisField::Elem
eval(const Gf2Poly& p, const GaloisField& gf, GaloisField::Elem beta)
{
    GaloisField::Elem acc = 0;
    for (long i = p.degree(); i >= 0; --i)
        acc = gf.mul(acc, beta) ^
            (p.coeff(static_cast<std::size_t>(i)) ? 1u : 0u);
    return acc;
}

} // namespace flashcache
