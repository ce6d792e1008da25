#include "gf/gf_poly.hh"

#include "util/log.hh"

namespace flashcache {

GfPoly::GfPoly(const GaloisField& gf)
    : gf_(&gf)
{
}

GfPoly::GfPoly(const GaloisField& gf, std::vector<Elem> coeffs)
    : gf_(&gf), coeffs_(std::move(coeffs))
{
    trim();
}

void
GfPoly::trim()
{
    while (!coeffs_.empty() && coeffs_.back() == 0)
        coeffs_.pop_back();
}

long
GfPoly::degree() const
{
    return static_cast<long>(coeffs_.size()) - 1;
}

GfPoly::Elem
GfPoly::coeff(std::size_t i) const
{
    return i < coeffs_.size() ? coeffs_[i] : 0;
}

GfPoly
GfPoly::operator*(const GfPoly& o) const
{
    if (gf_ != o.gf_)
        panic("GfPoly operands from different fields");
    if (isZero() || o.isZero())
        return GfPoly(*gf_);
    std::vector<Elem> out(coeffs_.size() + o.coeffs_.size() - 1, 0);
    for (std::size_t i = 0; i < coeffs_.size(); ++i) {
        if (coeffs_[i] == 0)
            continue;
        for (std::size_t j = 0; j < o.coeffs_.size(); ++j) {
            if (o.coeffs_[j] == 0)
                continue;
            out[i + j] ^= gf_->mul(coeffs_[i], o.coeffs_[j]);
        }
    }
    return GfPoly(*gf_, std::move(out));
}

GfPoly
GfPoly::scale(Elem s) const
{
    std::vector<Elem> out(coeffs_.size());
    for (std::size_t i = 0; i < coeffs_.size(); ++i)
        out[i] = gf_->mul(coeffs_[i], s);
    return GfPoly(*gf_, std::move(out));
}

GfPoly
GfPoly::shift(std::size_t k) const
{
    if (isZero())
        return GfPoly(*gf_);
    std::vector<Elem> out(coeffs_.size() + k, 0);
    for (std::size_t i = 0; i < coeffs_.size(); ++i)
        out[i + k] = coeffs_[i];
    return GfPoly(*gf_, std::move(out));
}

GfPoly::Elem
GfPoly::eval(Elem beta) const
{
    Elem acc = 0;
    for (std::size_t i = coeffs_.size(); i-- > 0;)
        acc = GaloisField::add(gf_->mul(acc, beta), coeffs_[i]);
    return acc;
}

GfPoly
GfPoly::derivative() const
{
    if (coeffs_.size() <= 1)
        return GfPoly(*gf_);
    std::vector<Elem> out(coeffs_.size() - 1, 0);
    for (std::size_t i = 1; i < coeffs_.size(); i += 2)
        out[i - 1] = coeffs_[i];
    return GfPoly(*gf_, std::move(out));
}

} // namespace flashcache
