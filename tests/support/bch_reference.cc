#include "support/bch_reference.hh"

#include <algorithm>

namespace flashcache {

namespace {

/** Gather codeword bit i from the split data/parity buffers. */
bool
codewordBit(const BchCode& code, const std::uint8_t* data,
            const std::uint8_t* parity, std::uint32_t i)
{
    if (i < code.parityBits())
        return (parity[i / 8] >> (i % 8)) & 1;
    const std::uint32_t j = i - code.parityBits();
    return (data[j / 8] >> (j % 8)) & 1;
}

void
flipBit(std::uint8_t* buf, std::uint32_t i)
{
    buf[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
}

} // namespace

void
encodeReference(const BchCode& code, const std::uint8_t* data,
                std::uint8_t* parity)
{
    // Systematic: parity(x) = data(x) * x^r mod g(x).
    Gf2Poly msg;
    const std::uint32_t nbytes = code.dataBits() / 8;
    for (std::uint32_t i = 0; i < nbytes; ++i) {
        const std::uint8_t byte = data[i];
        if (!byte)
            continue;
        for (unsigned b = 0; b < 8; ++b) {
            if (byte & (1u << b))
                msg.setCoeff(code.parityBits() + i * 8 + b, true);
        }
    }
    const Gf2Poly rem = msg.mod(code.generator());
    const std::uint32_t pbytes = code.parityBytes();
    for (std::uint32_t i = 0; i < pbytes; ++i)
        parity[i] = 0;
    for (std::uint32_t i = 0; i < code.parityBits(); ++i) {
        if (rem.coeff(i))
            parity[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
}

std::vector<GaloisField::Elem>
syndromesReference(const BchCode& code, const std::uint8_t* data,
                   const std::uint8_t* parity)
{
    // S_j = r(alpha^j), j = 1..2t, accumulated over set bits only.
    const GaloisField& gf = code.field();
    const unsigned t = code.t();
    const std::int64_t n = gf.groupOrder();
    std::vector<GaloisField::Elem> synd(2 * t, 0);
    const std::uint32_t total = code.codewordBits();
    for (std::uint32_t p = 0; p < total; ++p) {
        if (!codewordBit(code, data, parity, p))
            continue;
        for (unsigned j = 1; j <= 2 * t; ++j) {
            synd[j - 1] ^= gf.alphaPow(
                (static_cast<std::int64_t>(p) * j) % n);
        }
    }
    return synd;
}

BchDecodeResult
decodeReference(const BchCode& code, std::uint8_t* data,
                std::uint8_t* parity)
{
    // The original bit-serial pipeline, kept verbatim as the oracle:
    // per-set-bit syndromes, allocating Berlekamp-Massey, full Chien
    // sweep with per-position GF multiplies.
    const GaloisField& gf = code.field();
    const unsigned t = code.t();
    BchDecodeResult res;

    const auto synd = syndromesReference(code, data, parity);
    const bool clean = std::all_of(synd.begin(), synd.end(),
        [](GaloisField::Elem s) { return s == 0; });
    if (clean) {
        res.ok = true;
        return res;
    }

    std::vector<GaloisField::Elem> c = {1};
    std::vector<GaloisField::Elem> b = {1};
    unsigned l = 0;
    unsigned mm = 1;
    GaloisField::Elem bb = 1;
    for (unsigned nn = 0; nn < synd.size(); ++nn) {
        GaloisField::Elem d = synd[nn];
        for (unsigned i = 1; i <= l && i < c.size(); ++i)
            d ^= gf.mul(c[i], synd[nn - i]);

        if (d == 0) {
            ++mm;
        } else if (2 * l <= nn) {
            const std::vector<GaloisField::Elem> tmp = c;
            const GaloisField::Elem coef = gf.div(d, bb);
            if (c.size() < b.size() + mm)
                c.resize(b.size() + mm, 0);
            for (std::size_t i = 0; i < b.size(); ++i)
                c[i + mm] ^= gf.mul(coef, b[i]);
            l = nn + 1 - l;
            b = tmp;
            bb = d;
            mm = 1;
        } else {
            const GaloisField::Elem coef = gf.div(d, bb);
            if (c.size() < b.size() + mm)
                c.resize(b.size() + mm, 0);
            for (std::size_t i = 0; i < b.size(); ++i)
                c[i + mm] ^= gf.mul(coef, b[i]);
            ++mm;
        }
    }
    while (!c.empty() && c.back() == 0)
        c.pop_back();
    const auto& sigma = c;

    const unsigned deg = sigma.empty()
        ? 0 : static_cast<unsigned>(sigma.size() - 1);
    if (deg == 0 || deg > t) {
        res.ok = false;
        return res;
    }

    std::vector<GaloisField::Elem> term(sigma.begin(), sigma.end());
    std::vector<GaloisField::Elem> step(sigma.size());
    for (std::size_t j = 0; j < sigma.size(); ++j)
        step[j] = gf.alphaPow(-static_cast<std::int64_t>(j));

    std::vector<std::uint32_t> found;
    const std::uint32_t total = code.codewordBits();
    for (std::uint32_t p = 0; p < total; ++p) {
        GaloisField::Elem acc = 0;
        for (std::size_t j = 0; j < term.size(); ++j)
            acc ^= term[j];
        if (acc == 0)
            found.push_back(p);
        for (std::size_t j = 1; j < term.size(); ++j)
            term[j] = gf.mul(term[j], step[j]);
    }

    if (found.size() != deg) {
        res.ok = false;
        return res;
    }

    for (std::size_t i = 0; i < found.size(); ++i) {
        const std::uint32_t p = found[i];
        if (p < code.parityBits())
            flipBit(parity, p);
        else
            flipBit(data, p - code.parityBits());
        if (i < BchDecodeResult::kMaxReportedPositions)
            res.positions[i] = p;
    }
    res.correctedBits = deg;
    res.ok = true;
    return res;
}

} // namespace flashcache
