/**
 * @file
 * x86 AES-NI / SSSE3 / PCLMULQDQ building blocks shared by aes128.cc,
 * hash.cc and gf128.cc, three of the files CMake compiles with
 * -maes -mssse3 -mpclmul when the compiler probe passes
 * (HAAC_USE_AESNI; bitmatrix.cc is the fourth, for plain SSE2). Each
 * kernel still checks CPUID once per process through the predicates
 * below, so a binary built here runs on an x86 CPU without the
 * extensions, on the portable code.
 */
#ifndef HAAC_CRYPTO_AESNI_H
#define HAAC_CRYPTO_AESNI_H

#if defined(HAAC_USE_AESNI)

#include <emmintrin.h>
#include <tmmintrin.h>
#include <wmmintrin.h>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {
namespace aesni {

/** AES-NI plus SSSE3 (pshufb, for the key schedule) on this CPU. */
inline bool
hasAes()
{
    static const bool ok = __builtin_cpu_supports("aes") &&
                           __builtin_cpu_supports("ssse3");
    return ok;
}

/** PCLMULQDQ on this CPU. */
inline bool
hasClmul()
{
    static const bool ok = __builtin_cpu_supports("pclmul");
    return ok;
}

/** A Label as a register; its byte order is Label::toBytes'. */
inline __m128i
load(const Label &x)
{
    return _mm_set_epi64x(static_cast<long long>(x.hi),
                          static_cast<long long>(x.lo));
}

inline Label
store(__m128i v)
{
    uint8_t bytes[kLabelBytes];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(bytes), v);
    return Label::fromBytes(bytes);
}

/**
 * Round key @p round (1..10) from round key round-1. pshufb rotates
 * the last word and broadcasts it to all four columns; with every
 * column equal ShiftRows is a no-op, so aesenclast is SubWord plus
 * the round constant. Two shift-XORs fold the three shifted copies
 * of the previous key into it, giving each word the running XOR of
 * the words before it that the schedule needs.
 */
inline __m128i
nextRoundKey(__m128i key, int round)
{
    const __m128i rot_last_word = _mm_setr_epi8(
        13, 14, 15, 12, 13, 14, 15, 12, 13, 14, 15, 12, 13, 14, 15, 12);
    const __m128i sub = _mm_aesenclast_si128(
        _mm_shuffle_epi8(key, rot_last_word),
        _mm_set1_epi32(kAesRcon[round - 1]));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 8));
    return _mm_xor_si128(key, sub);
}

} // namespace aesni
} // namespace haac

#endif // HAAC_USE_AESNI

#endif // HAAC_CRYPTO_AESNI_H
