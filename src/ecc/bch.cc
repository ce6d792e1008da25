#include "ecc/bch.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "ecc/clmul.hh"
#include "util/log.hh"

namespace flashcache {

namespace {

/** Smallest member of the 2-cyclotomic coset of e mod n. */
std::uint64_t
cosetLeader(std::uint64_t e, std::uint64_t n)
{
    std::uint64_t leader = e;
    std::uint64_t x = (e * 2) % n;
    while (x != e) {
        leader = std::min(leader, x);
        x = (x * 2) % n;
    }
    return leader;
}

/** Coefficients 0..63 of p as a word. */
std::uint64_t
low64(const Gf2Poly& p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 64; ++i) {
        if (p.coeff(i))
            v |= 1ull << i;
    }
    return v;
}

/**
 * Emit the r parity bytes of data(x) x^64 mod G = (data(x) x^r mod g)
 * x^(64 - r), the folds' result.
 */
void
storeFoldedRemainder(std::uint64_t folded, std::uint32_t r,
                     std::uint8_t* out)
{
    const std::uint64_t rem = folded >> (64 - r);
    for (std::uint32_t i = 0; i < (r + 7) / 8; ++i)
        out[i] = static_cast<std::uint8_t>(rem >> (8 * i));
}

#if FLASHCACHE_HAVE_CLMUL_KERNELS
/**
 * The 128-bit tier's tail: fold the 16-byte blocks in [data, p) into
 * lane x, 128 bits per step, then reduce x * x^64 mod G.
 */
FLASHCACHE_CLMUL_TARGET inline std::uint64_t
foldRemainderTail(__m128i x, const std::uint8_t* data,
                  const std::uint8_t* p, const long long* key)
{
    using clmul::fold;
    using clmul::load;
    const __m128i k128 = _mm_set_epi64x(key[3], key[2]);
    const __m128i k64 = _mm_set_epi64x(key[2], key[4]);
    const __m128i mu_g = _mm_set_epi64x(key[4], key[5]);
    while (p != data) {
        p -= 16;
        x = _mm_xor_si128(fold(x, k128), load(p));
    }

    // y = x * x^64 mod G, < 128 bits. Barrett: q = floor(y / G) =
    // y_hi ^ hi64(y_hi * mu'), and y mod G = y_lo ^ lo64(q * G').
    const __m128i y = fold(x, k64);
    const auto y_lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(y));
    const auto y_hi = static_cast<std::uint64_t>(_mm_extract_epi64(y, 1));
    const __m128i qmu = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(y_hi)), mu_g, 0x00);
    const std::uint64_t q =
        y_hi ^ static_cast<std::uint64_t>(_mm_extract_epi64(qmu, 1));
    const __m128i qg = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(q)), mu_g, 0x10);
    return y_lo ^ static_cast<std::uint64_t>(_mm_cvtsi128_si64(qg));
}

/**
 * data(x) x^64 mod G for a monic degree-64 G, through PCLMULQDQ
 * folds; nbytes is a nonzero multiple of 16 and keys are
 * BchCode::foldKeys_. Lanes are read from the data's top (highest
 * degree) down.
 */
FLASHCACHE_CLMUL_TARGET std::uint64_t
foldRemainder(const std::uint8_t* data, std::uint32_t nbytes,
              const std::uint64_t* keys)
{
    using clmul::fold;
    using clmul::load;
    long long key[6];
    std::memcpy(key, keys, sizeof(key));
    const __m128i k512 = _mm_set_epi64x(key[1], key[0]);
    const __m128i k128 = _mm_set_epi64x(key[3], key[2]);

    const std::uint8_t* p = data + nbytes;
    __m128i x;
    if (nbytes >= 64) {
        p -= 64;
        __m128i x0 = load(p);
        __m128i x1 = load(p + 16);
        __m128i x2 = load(p + 32);
        __m128i x3 = load(p + 48);
        while (p - data >= 64) {
            p -= 64;
            x0 = _mm_xor_si128(fold(x0, k512), load(p));
            x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
            x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
            x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
        }
        x = _mm_xor_si128(fold(x3, k128), x2);
        x = _mm_xor_si128(fold(x, k128), x1);
        x = _mm_xor_si128(fold(x, k128), x0);
    } else {
        p -= 16;
        x = load(p);
    }
    return foldRemainderTail(x, data, p, key);
}

/**
 * foldRemainder through VPCLMULQDQ, nbytes a multiple of 16 and at
 * least 256; wide_keys are BchCode::wideKeys_. Four zmm accumulators
 * (16 lanes) fold 2048 bits per step, merge into one zmm with 512-bit
 * folds, which keeps folding 512 bits per step; lanes 1..3 of it then
 * move 128, 256 and 384 bits down onto lane 0 (the lowest degree),
 * which goes to foldRemainderTail.
 */
FLASHCACHE_WIDE_CLMUL_TARGET std::uint64_t
foldRemainderWide(const std::uint8_t* data, std::uint32_t nbytes,
                  const std::uint64_t* keys, const std::uint64_t* wide_keys)
{
    using clmul::fold4;
    using clmul::key4;
    using clmul::load4;
    long long key[6];
    std::memcpy(key, keys, sizeof(key));
    long long wide[6];
    std::memcpy(wide, wide_keys, sizeof(wide));
    const __m512i k2048 = key4(wide[0], wide[1]);
    const __m512i k512 = key4(key[0], key[1]);
    const __m512i klanes = _mm512_set_epi64(
        wide[5], wide[4], wide[3], wide[2], key[3], key[2], 0, 0);

    const std::uint8_t* p = data + nbytes - 256;
    __m512i x0 = load4(p);
    __m512i x1 = load4(p + 64);
    __m512i x2 = load4(p + 128);
    __m512i x3 = load4(p + 192);
    while (p - data >= 256) {
        p -= 256;
        x0 = fold4(x0, k2048, load4(p));
        x1 = fold4(x1, k2048, load4(p + 64));
        x2 = fold4(x2, k2048, load4(p + 128));
        x3 = fold4(x3, k2048, load4(p + 192));
    }
    __m512i x = fold4(x3, k512, x2);
    x = fold4(x, k512, x1);
    x = fold4(x, k512, x0);
    while (p - data >= 64) {
        p -= 64;
        x = fold4(x, k512, load4(p));
    }
    return foldRemainderTail(clmul::foldLanes(x, klanes, 0), data, p, key);
}
#endif

} // namespace

BchCode::BchCode(unsigned m, unsigned t, std::uint32_t data_bits)
    : gf_(m), t_(t), dataBits_(data_bits)
{
    if (t == 0)
        fatal("BchCode with t = 0");
    if (data_bits % 8 != 0)
        fatal("BchCode data length must be byte aligned");

    // Generator = LCM of minimal polynomials of alpha^1 .. alpha^2t.
    // Even powers share cyclotomic cosets with smaller ones, so only
    // distinct coset leaders among the odd exponents contribute.
    const std::uint64_t n = gf_.groupOrder();
    std::vector<std::uint64_t> leaders;
    gen_ = Gf2Poly::monomial(0); // 1
    for (std::uint64_t i = 1; i < 2ull * t; i += 2) {
        const std::uint64_t leader = cosetLeader(i % n, n);
        if (std::find(leaders.begin(), leaders.end(), leader) !=
            leaders.end()) {
            continue;
        }
        leaders.push_back(leader);
        gen_ = gen_ * minimalPolynomial(gf_, static_cast<std::uint32_t>(
            leader));
    }

    parityBits_ = static_cast<std::uint32_t>(gen_.degree());
    if (dataBits_ + parityBits_ > n) {
        std::ostringstream os;
        os << "BCH(m=" << m << ", t=" << t << ") cannot hold "
           << data_bits << " data bits (n = " << n << ", parity = "
           << parityBits_ << ")";
        fatal(os.str());
    }

    // ---- slicing-by-8 remainder tables ----
    // T_k[b] = b(x) * x^(8k) * x^r mod g(x), built from the 64
    // single-bit basis remainders x^(r+i) mod g by GF(2) linearity and
    // stored shifted up by 64W - r bits, so the state's top word is
    // always the next 64 coefficients to fold.
    const std::uint32_t r = parityBits_;
    parityWords_ = (r + 63) / 64;
    const std::uint32_t W = parityWords_;
    const std::uint32_t align = 64 * W - r;
    lastParityMask_ = (r % 8)
        ? static_cast<std::uint8_t>((1u << (r % 8)) - 1) : 0xFF;
    std::vector<std::uint64_t> basis(64u * W, 0);
    for (std::uint32_t i = 0; i < 64; ++i) {
        const Gf2Poly rem = Gf2Poly::monomial(r + i).mod(gen_);
        for (std::uint32_t c = 0; c < r; ++c) {
            const std::uint32_t at = c + align;
            if (rem.coeff(c))
                basis[i * W + at / 64] |= 1ull << (at % 64);
        }
    }
    sliceTable_.assign(8u * 256u * W, 0);
    for (unsigned k = 0; k < 8; ++k) {
        std::uint64_t* tbl = &sliceTable_[k * 256u * W];
        for (unsigned byte = 1; byte < 256; ++byte) {
            const unsigned low = byte & (byte - 1);
            const unsigned bit = 8 * k + static_cast<unsigned>(
                __builtin_ctz(byte));
            for (std::uint32_t w = 0; w < W; ++w)
                tbl[byte * W + w] = tbl[low * W + w] ^ basis[bit * W + w];
        }
    }

    // ---- CLMUL folding constants, modulo G = g(x) x^(64 - r) ----
    const std::uint32_t nbytes = dataBits_ / 8;
    clmulFold_ = r <= 64 && nbytes >= 16 && nbytes % 16 == 0;
    if (clmulFold_) {
        const Gf2Poly big_g = gen_ * Gf2Poly::monomial(64 - r);
        const unsigned exps[5] = {512, 576, 128, 192, 64};
        for (unsigned k = 0; k < 5; ++k)
            foldKeys_[k] = low64(Gf2Poly::monomial(exps[k]).mod(big_g));
        // mu = floor(x^128 / G) by long division.
        Gf2Poly rem = Gf2Poly::monomial(128);
        Gf2Poly mu;
        for (long d = rem.degree(); d >= 64; d = rem.degree()) {
            mu.setCoeff(static_cast<std::size_t>(d - 64), true);
            rem = rem + big_g * Gf2Poly::monomial(
                static_cast<std::size_t>(d - 64));
        }
        foldKeys_[5] = low64(mu);
        const unsigned wide_exps[6] = {2048, 2112, 256, 320, 384, 448};
        for (unsigned k = 0; k < 6; ++k)
            wideKeys_[k] =
                low64(Gf2Poly::monomial(wide_exps[k]).mod(big_g));
    }

    // ---- odd-syndrome tables, one row per remainder byte ----
    // synTable_[(i * 256 + b) * t + k] = b(alpha^j) alpha^(8ij),
    // j = 2k + 1: what byte b at position i of the remainder adds to
    // S_j. The t entries of one (i, b) sit together, so a decode reads
    // one cache line per remainder byte. Even syndromes follow from
    // S_2j = S_j^2 at decode time, halving the table set.
    const std::uint32_t pbytes = parityBytes();
    synTable_.assign(static_cast<std::size_t>(pbytes) * 256 * t_, 0);
    for (std::uint32_t i = 0; i < pbytes; ++i) {
        std::uint16_t* row =
            &synTable_[static_cast<std::size_t>(i) * 256 * t_];
        for (unsigned k = 0; k < t_; ++k) {
            const std::uint64_t j = 2ull * k + 1;
            GaloisField::Elem bit[8];
            for (unsigned bpos = 0; bpos < 8; ++bpos)
                bit[bpos] = gf_.alphaPow(static_cast<std::int64_t>(
                    ((8 * i + bpos) * j) % n));
            for (unsigned b = 1; b < 256; ++b) {
                const unsigned low = b & (b - 1);
                const unsigned bpos = static_cast<unsigned>(
                    __builtin_ctz(b));
                row[b * t_ + k] =
                    static_cast<std::uint16_t>(row[low * t_ + k] ^ bit[bpos]);
            }
        }
    }

    // ---- Chien step table: alpha^-j per locator coefficient j ----
    chienStepLog_.resize(t_ + 1);
    for (unsigned j = 0; j <= t_; ++j)
        chienStepLog_[j] = static_cast<std::uint32_t>((n - j % n) % n);

    // ---- workspace (the only allocations after construction) ----
    ws_.encState.assign(parityWords_, 0);
    ws_.remBytes.assign(parityBytes(), 0);
    ws_.synd.assign(2 * t_, 0);
    const std::size_t bm_cap = 2 * t_ + 3;
    ws_.sigma.assign(bm_cap, 0);
    ws_.bmB.assign(bm_cap, 0);
    ws_.bmTmp.assign(bm_cap, 0);
    ws_.termLog.assign(t_ + 1, 0);
    ws_.positions.assign(t_, 0);
}

template <unsigned kW>
void
BchCode::remainderWords(const std::uint8_t* data, std::uint8_t* out) const
{
    // The state S holds the running remainder R shifted up by
    // 64W - r bits, so the coefficients that overflow x^r on the next
    // step are always S's top word (or top byte). Bytes are fed
    // highest degree first. Folding 8 data bytes D is
    //   S' = (S << 64) ^ XOR_k T_k[byte_k(S_top ^ D)]
    // and one tail byte B is
    //   S' = (S << 8) ^ T_0[(S_top >> 56) ^ B].
    const std::uint32_t W = kW ? kW : parityWords_;
    std::uint64_t local[kW ? kW : 1];
    std::uint64_t* s = kW ? local : ws_.encState.data();
    for (std::uint32_t w = 0; w < W; ++w)
        s[w] = 0;
    const std::uint64_t* t0 = sliceTable_.data();

    const std::uint32_t nbytes = dataBits_ / 8;
    const std::uint32_t nblocks = nbytes / 8;
    for (std::uint32_t i = nbytes; i-- > nblocks * 8;) {
        const unsigned idx =
            static_cast<unsigned>(s[W - 1] >> 56) ^ data[i];
        for (std::uint32_t w = W; w-- > 1;)
            s[w] = (s[w] << 8) | (s[w - 1] >> 56);
        s[0] <<= 8;
        for (std::uint32_t w = 0; w < W; ++w)
            s[w] ^= t0[idx * W + w];
    }

    for (std::uint32_t blk = nblocks; blk-- > 0;) {
        std::uint64_t d;
        std::memcpy(&d, data + 8 * blk, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        d = __builtin_bswap64(d);
#endif
        const std::uint64_t h = s[W - 1] ^ d;
        for (std::uint32_t w = W; w-- > 1;)
            s[w] = s[w - 1];
        s[0] = 0;
        for (unsigned k = 0; k < 8; ++k) {
            const std::uint64_t* e =
                t0 + (k * 256u + ((h >> (8 * k)) & 0xFF)) * W;
            for (std::uint32_t w = 0; w < W; ++w)
                s[w] ^= e[w];
        }
    }

    // Undo the alignment, R = S >> (64W - r), and emit R's bytes.
    const std::uint32_t sh = 64 * W - parityBits_;
    for (std::uint32_t w = 0; w < W; ++w) {
        s[w] >>= sh;
        if (sh && w + 1 < W)
            s[w] |= s[w + 1] << (64 - sh);
    }
    const std::uint32_t pbytes = parityBytes();
    for (std::uint32_t i = 0; i < pbytes; ++i)
        out[i] = static_cast<std::uint8_t>(s[i / 8] >> ((i % 8) * 8));
}

void
BchCode::encode(const std::uint8_t* data, std::uint8_t* parity) const
{
    if (haveWideClmul())
        encodeWide(data, parity);
    else if (haveClmul())
        encodeClmul(data, parity);
    else
        encodeTable(data, parity);
}

void
BchCode::encodeWide(const std::uint8_t* data, std::uint8_t* parity) const
{
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    if (clmulFold_ && dataBits_ / 8 >= 256) {
        storeFoldedRemainder(
            foldRemainderWide(data, dataBits_ / 8, foldKeys_, wideKeys_),
            parityBits_, parity);
        return;
    }
#endif
    encodeClmul(data, parity);
}

void
BchCode::encodeClmul(const std::uint8_t* data, std::uint8_t* parity) const
{
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    if (clmulFold_) {
        storeFoldedRemainder(foldRemainder(data, dataBits_ / 8, foldKeys_),
                             parityBits_, parity);
        return;
    }
#endif
    encodeTable(data, parity);
}

void
BchCode::encodeTable(const std::uint8_t* data, std::uint8_t* parity) const
{
    switch (parityWords_) {
      case 1: remainderWords<1>(data, parity); break;
      case 2: remainderWords<2>(data, parity); break;
      case 3: remainderWords<3>(data, parity); break;
      case 4: remainderWords<4>(data, parity); break;
      default: remainderWords<0>(data, parity); break;
    }
}

bool
BchCode::reduceWord(const std::uint8_t* data,
                    const std::uint8_t* parity) const
{
    // The received word c(x) = parity(x) + data(x) x^r reduces mod g
    // to rem(x) = parity(x) ^ (data(x) x^r mod g). Every alpha^j,
    // j = 1..2t, is a root of g, so S_j = c(alpha^j) = rem(alpha^j):
    // after the one O(n) remainder pass the syndromes cost O(t r).
    std::uint8_t* rb = ws_.remBytes.data();
    encode(data, rb);
    const std::uint32_t pbytes = parityBytes();
    std::uint8_t nonzero = 0;
    for (std::uint32_t i = 0; i < pbytes; ++i) {
        // Bits above r in the last parity byte are not part of the word.
        const std::uint8_t mask = i + 1 == pbytes ? lastParityMask_ : 0xFF;
        rb[i] = (rb[i] ^ parity[i]) & mask;
        nonzero |= rb[i];
    }
    return nonzero == 0;
}

void
BchCode::oddSyndromes() const
{
    // S_j, j = 1, 3, .., 2t-1: byte B at position i of rem contributes
    // B(alpha^j) * alpha^(8ij), one synTable_ entry.
    const std::uint32_t pbytes = parityBytes();
    const std::uint8_t* rb = ws_.remBytes.data();
    GaloisField::Elem* synd = ws_.synd.data();
    for (unsigned k = 0; k < t_; ++k)
        synd[2 * k] = 0;
    for (std::uint32_t i = 0; i < pbytes; ++i) {
        const std::uint16_t* e =
            &synTable_[(static_cast<std::size_t>(i) * 256 + rb[i]) * t_];
        for (unsigned k = 0; k < t_; ++k)
            synd[2 * k] ^= e[k];
    }
}

void
BchCode::evenSyndromes() const
{
    // Frobenius squares: S_2j = S_j^2.
    GaloisField::Elem* synd = ws_.synd.data();
    for (unsigned j = 2; j <= 2 * t_; j += 2)
        synd[j - 1] = gf_.square(synd[j / 2 - 1]);
}

bool
BchCode::isCodewordClean(const std::uint8_t* data,
                         const std::uint8_t* parity) const
{
    return reduceWord(data, parity);
}

unsigned
BchCode::berlekampMassey() const
{
    // Berlekamp-Massey over GF(2^m): find the shortest LFSR C(x)
    // generating the syndrome sequence. Scratch polynomials live in
    // the workspace; lengths are tracked explicitly so the loop never
    // touches the allocator.
    const GaloisField::Elem* synd = ws_.synd.data();
    const unsigned nsynd = 2 * t_;
    const std::size_t cap = ws_.sigma.size();
    GaloisField::Elem* c = ws_.sigma.data();
    GaloisField::Elem* b = ws_.bmB.data();
    GaloisField::Elem* tmp = ws_.bmTmp.data();
    std::fill(ws_.sigma.begin(), ws_.sigma.end(), 0);
    std::fill(ws_.bmB.begin(), ws_.bmB.end(), 0);

    c[0] = 1;
    b[0] = 1;
    std::size_t c_len = 1;
    std::size_t b_len = 1;
    unsigned l = 0;
    unsigned mm = 1;
    GaloisField::Elem bb = 1;

    for (unsigned nn = 0; nn < nsynd; ++nn) {
        GaloisField::Elem d = synd[nn];
        for (unsigned i = 1; i <= l && i < c_len; ++i)
            d ^= gf_.mul(c[i], synd[nn - i]);

        if (d == 0) {
            ++mm;
        } else if (2 * l <= nn) {
            std::copy(c, c + c_len, tmp);
            const std::size_t tmp_len = c_len;
            const GaloisField::Elem coef = gf_.div(d, bb);
            if (c_len < b_len + mm) {
                if (b_len + mm > cap)
                    panic("Berlekamp-Massey workspace overflow");
                c_len = b_len + mm;
            }
            for (std::size_t i = 0; i < b_len; ++i)
                c[i + mm] ^= gf_.mul(coef, b[i]);
            l = nn + 1 - l;
            std::copy(tmp, tmp + tmp_len, b);
            std::fill(b + tmp_len, b + std::max(tmp_len, b_len), 0);
            b_len = tmp_len;
            bb = d;
            mm = 1;
        } else {
            const GaloisField::Elem coef = gf_.div(d, bb);
            if (c_len < b_len + mm) {
                if (b_len + mm > cap)
                    panic("Berlekamp-Massey workspace overflow");
                c_len = b_len + mm;
            }
            for (std::size_t i = 0; i < b_len; ++i)
                c[i + mm] ^= gf_.mul(coef, b[i]);
            ++mm;
        }
    }
    while (c_len > 0 && c[c_len - 1] == 0)
        --c_len;
    return static_cast<unsigned>(c_len);
}

BchDecodeResult
BchCode::decode(std::uint8_t* data, std::uint8_t* parity) const
{
    BchDecodeResult res;

    if (reduceWord(data, parity)) {
        res.ok = true;
        return res;
    }
    oddSyndromes();

    // One error at p gives S_j = alpha^(pj) = S_1^j for every j: the
    // sequence whose shortest LFSR is 1 + S_1 x, which is what
    // Berlekamp-Massey would return. The odd j decide it (the even
    // syndromes are squares of odd ones). The check multiplies without
    // the GF tables, so a one-error read looks up only log S_1 below.
    GaloisField::Elem* sigma = ws_.sigma.data();
    const GaloisField::Elem* synd = ws_.synd.data();
    bool single = synd[0] != 0;
    const GaloisField::Elem s1_squared = gf_.mulCarryless(synd[0], synd[0]);
    GaloisField::Elem s1_power = synd[0];
    for (unsigned k = 1; single && k < t_; ++k) {
        s1_power = gf_.mulCarryless(s1_power, s1_squared);
        single = synd[2 * k] == s1_power;
    }
    unsigned deg = 1;
    if (single) {
        sigma[1] = synd[0];
    } else {
        evenSyndromes();
        const unsigned sigma_len = berlekampMassey();
        deg = sigma_len == 0 ? 0 : sigma_len - 1;
    }
    if (deg == 0 || deg > t_) {
        res.ok = false;
        return res;
    }

    std::uint32_t* positions = ws_.positions.data();
    unsigned nfound = 0;
    const std::uint32_t total = codewordBits();
    if (deg == 1) {
        // sigma(x) = 1 + sigma_1 x has its one root at alpha^-p with
        // p = log sigma_1; the error lies in the word only if p does.
        const std::uint32_t p = gf_.logAlpha(sigma[1]);
        if (p < total)
            positions[nfound++] = p;
    } else if (deg == 2 && gf_.m() % 2 == 1) {
        // sigma(x) = 1 + s1 x + s2 x^2 with x = (s1/s2) y becomes
        // y^2 + y = c, c = s2/s1^2. For odd m the half-trace
        // y = sum_{i <= (m-1)/2} c^(4^i) solves it when Tr(c) = 0;
        // otherwise y^2 + y = c + 1 and there is no root. The roots
        // are x = (s1/s2) y and (s1/s2)(y + 1), at p = (n - log x)
        // mod n. s1 = 0 is a double root: not two distinct errors.
        if (sigma[1] != 0) {
            const GaloisField::Elem c =
                gf_.div(sigma[2], gf_.square(sigma[1]));
            GaloisField::Elem y = 0;
            GaloisField::Elem c4i = c;
            for (unsigned i = 0; i <= (gf_.m() - 1) / 2; ++i) {
                y ^= c4i;
                c4i = gf_.square(gf_.square(c4i));
            }
            if ((gf_.square(y) ^ y) == c) {
                const std::uint32_t nmod = gf_.groupOrder();
                const GaloisField::Elem scale = gf_.div(sigma[1], sigma[2]);
                std::uint32_t p0 =
                    (nmod - gf_.logAlpha(gf_.mul(scale, y))) % nmod;
                std::uint32_t p1 =
                    (nmod - gf_.logAlpha(gf_.mul(scale, y ^ 1))) % nmod;
                if (p0 > p1)
                    std::swap(p0, p1);
                if (p1 < total) {
                    positions[nfound++] = p0;
                    positions[nfound++] = p1;
                }
            }
        }
    } else {
        // Chien search over the shortened positions: sigma has a root
        // at alpha^{-p} exactly when an error sits at codeword
        // position p. Each term sigma_j * alpha^{-pj} advances per
        // position by one log-domain add (termLog_j += n - j), and the
        // scan stops as soon as deg roots are found — a degree-deg
        // polynomial has no more.
        const std::uint32_t nmod = gf_.groupOrder();
        std::uint32_t* term = ws_.termLog.data();
        static constexpr std::uint32_t kNoTerm = 0xFFFFFFFFu;
        for (unsigned j = 0; j <= deg; ++j)
            term[j] = sigma[j] ? gf_.logAlpha(sigma[j]) : kNoTerm;

        for (std::uint32_t p = 0; p < total; ++p) {
            GaloisField::Elem acc = 0;
            for (unsigned j = 0; j <= deg; ++j) {
                if (term[j] != kNoTerm)
                    acc ^= gf_.alphaPowUnreduced(term[j]);
            }
            if (acc == 0) {
                positions[nfound++] = p;
                if (nfound == deg)
                    break;
            }
            for (unsigned j = 1; j <= deg; ++j) {
                if (term[j] == kNoTerm)
                    continue;
                term[j] += chienStepLog_[j];
                if (term[j] >= nmod)
                    term[j] -= nmod;
            }
        }
    }

    if (nfound != deg) {
        // Some locator roots fall outside the shortened word: the
        // actual error count exceeded t.
        res.ok = false;
        return res;
    }

    for (unsigned i = 0; i < nfound; ++i) {
        const std::uint32_t p = positions[i];
        if (p < parityBits_)
            flipBit(parity, p);
        else
            flipBit(data, p - parityBits_);
        if (i < BchDecodeResult::kMaxReportedPositions)
            res.positions[i] = p;
    }
    res.correctedBits = deg;
    res.ok = true;
    return res;
}

} // namespace flashcache
