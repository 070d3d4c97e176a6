#include "crypto/gf128.h"

#include "crypto/aesni.h"

namespace haac {

Label
gf128MulPortable(const Label &a, const Label &b)
{
    uint64_t alo = a.lo, ahi = a.hi;
    uint64_t rlo = 0, rhi = 0;
    for (const uint64_t word : {b.lo, b.hi}) {
        for (int i = 0; i < 64; ++i) {
            // All ones when this bit of b is set: add a, no branch.
            const uint64_t take = 0 - ((word >> i) & 1);
            rlo ^= alo & take;
            rhi ^= ahi & take;
            // a <<= 1 (mod the field polynomial): the x^128 overflow
            // bit folds back in as x^7 + x^2 + x + 1 = 0x87.
            const uint64_t carry = 0 - (ahi >> 63);
            ahi = (ahi << 1) | (alo >> 63);
            alo = (alo << 1) ^ (carry & 0x87);
        }
    }
    return Label(rlo, rhi);
}

#if defined(HAAC_USE_AESNI)
namespace {

/** Add the unreduced 256-bit product x * y into hi:lo. */
inline void
clmulAdd(__m128i x, __m128i y, __m128i &lo, __m128i &hi)
{
    const __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(x, y, 0x01),
                                      _mm_clmulepi64_si128(x, y, 0x10));
    lo = _mm_xor_si128(lo, _mm_xor_si128(_mm_clmulepi64_si128(x, y, 0x00),
                                         _mm_slli_si128(mid, 8)));
    hi = _mm_xor_si128(hi, _mm_xor_si128(_mm_clmulepi64_si128(x, y, 0x11),
                                         _mm_srli_si128(mid, 8)));
}

/** hi:lo mod the field polynomial. */
inline Label
reduce(__m128i lo, __m128i hi)
{
    // x^128 = 0x87: fold the top word (at x^192) down by 64 bits,
    // then the rest of hi (at x^128) into lo.
    const __m128i poly = _mm_set_epi64x(0, 0x87);
    const __m128i top = _mm_clmulepi64_si128(hi, poly, 0x01);
    lo = _mm_xor_si128(lo, _mm_slli_si128(top, 8));
    hi = _mm_xor_si128(hi, _mm_srli_si128(top, 8));
    lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(hi, poly, 0x00));
    return aesni::store(lo);
}

} // namespace
#endif

Label
gf128Mul(const Label &a, const Label &b)
{
#if defined(HAAC_USE_AESNI)
    if (aesni::hasClmul()) {
        __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();
        clmulAdd(aesni::load(a), aesni::load(b), lo, hi);
        return reduce(lo, hi);
    }
#endif
    return gf128MulPortable(a, b);
}

Label
gf128InnerProduct(const Label *a, const Label *b, size_t n)
{
#if defined(HAAC_USE_AESNI)
    if (aesni::hasClmul()) {
        // Reduction is linear, so the products sum unreduced.
        __m128i lo = _mm_setzero_si128(), hi = _mm_setzero_si128();
        for (size_t j = 0; j < n; ++j)
            clmulAdd(aesni::load(a[j]), aesni::load(b[j]), lo, hi);
        return reduce(lo, hi);
    }
#endif
    Label sum;
    for (size_t j = 0; j < n; ++j)
        sum ^= gf128MulPortable(a[j], b[j]);
    return sum;
}

} // namespace haac
