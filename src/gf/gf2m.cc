#include "gf/gf2m.hh"

#include <sstream>

#include "util/log.hh"

namespace flashcache {

namespace {

/** Built-in primitive polynomial for degree m (2 <= m <= 16). */
std::uint32_t
defaultPrimitivePoly(unsigned m)
{
    // Standard primitive polynomials (Lin & Costello, appendix B).
    switch (m) {
      case 2: return 0x7;          // x^2 + x + 1
      case 3: return 0xB;          // x^3 + x + 1
      case 4: return 0x13;         // x^4 + x + 1
      case 5: return 0x25;         // x^5 + x^2 + 1
      case 6: return 0x43;         // x^6 + x + 1
      case 7: return 0x89;         // x^7 + x^3 + 1
      case 8: return 0x11D;        // x^8 + x^4 + x^3 + x^2 + 1
      case 9: return 0x211;        // x^9 + x^4 + 1
      case 10: return 0x409;       // x^10 + x^3 + 1
      case 11: return 0x805;       // x^11 + x^2 + 1
      case 12: return 0x1053;      // x^12 + x^6 + x^4 + x + 1
      case 13: return 0x201B;      // x^13 + x^4 + x^3 + x + 1
      case 14: return 0x4443;      // x^14 + x^10 + x^6 + x + 1
      case 15: return 0x8003;      // x^15 + x + 1
      case 16: return 0x1100B;     // x^16 + x^12 + x^3 + x + 1
      default:
        fatal("no default primitive polynomial for m");
    }
}

} // namespace

GaloisField::GaloisField(unsigned m)
    : m_(m), q_(1u << m), poly_(defaultPrimitivePoly(m)),
      polyLow_(poly_ & (q_ - 1))
{
    if (m < 2 || m > 16)
        fatal("GaloisField degree out of range [2,16]");

    const Elem n = groupOrder();
    exp_.resize(2 * n);
    log_.assign(q_, 0);

    Elem x = 1;
    for (Elem i = 0; i < n; ++i) {
        exp_[i] = x;
        log_[x] = i;
        x <<= 1;
        if (x & q_)
            x ^= poly_;
    }
    if (x != 1) {
        std::ostringstream os;
        os << "polynomial 0x" << std::hex << poly_
           << " is not primitive for GF(2^" << std::dec << m << ")";
        fatal(os.str());
    }
    for (Elem i = 0; i < n; ++i)
        exp_[n + i] = exp_[i];
}

GaloisField::Elem
GaloisField::div(Elem a, Elem b) const
{
    if (b == 0)
        panic("division by zero in GF(2^m)");
    if (a == 0)
        return 0;
    return exp_[log_[a] + groupOrder() - log_[b]];
}

} // namespace flashcache
