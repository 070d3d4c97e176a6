#include "crypto/bitmatrix.h"

#include <cstring>

#if defined(HAAC_USE_AESNI)
#include <emmintrin.h>
#endif

namespace haac {

void
transpose64(uint64_t m[64])
{
    // Butterfly exchange (Hacker's Delight 7-3), mirrored for the
    // LSB-first bit convention: swap the 2^j x 2^j off-diagonal
    // blocks at every scale.
    uint64_t mask = 0x00000000ffffffffull;
    for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
        }
    }
}

void
transpose128BlockPortable(const uint8_t *cols, size_t col_stride,
                          Label rows[128])
{
    // Four 64 x 64 quadrants: (column half a, row half b).
    uint64_t q[64];
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            for (int i = 0; i < 64; ++i)
                std::memcpy(&q[i],
                            cols + size_t(64 * a + i) * col_stride +
                                8 * b,
                            8);
            transpose64(q);
            for (int j = 0; j < 64; ++j) {
                Label &row = rows[64 * b + j];
                if (a == 0)
                    row.lo = q[j];
                else
                    row.hi = q[j];
            }
        }
    }
}

#if defined(HAAC_USE_AESNI)
namespace {

/**
 * SSE2: per group of 16 columns, a 16 x 16 byte transpose (four
 * rounds of byte unpacks, each rotating the vector and byte index bits
 * by one) puts byte k of all 16 columns in one register; eight
 * movemasks then peel off rows 8k + 7 down to 8k, 16 columns each.
 * SSE2 is part of x86-64, so no CPUID check; x86 is little-endian, so
 * a row Label's bytes are Label::toBytes' and take the words in place.
 */
void
transpose128BlockSse2(const uint8_t *cols, size_t col_stride,
                      Label rows[128])
{
    static_assert(sizeof(Label) == 16, "rows are written as bytes");
    auto *out = reinterpret_cast<uint8_t *>(rows);
    for (int group = 0; group < 8; ++group) {
        __m128i v[16], w[16];
        for (int c = 0; c < 16; ++c)
            v[c] = _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                cols + size_t(16 * group + c) * col_stride));
        const auto unpack = [](const __m128i *in, __m128i *to) {
            for (int i = 0; i < 8; ++i) {
                to[2 * i] = _mm_unpacklo_epi8(in[i], in[i + 8]);
                to[2 * i + 1] = _mm_unpackhi_epi8(in[i], in[i + 8]);
            }
        };
        unpack(v, w);
        unpack(w, v);
        unpack(v, w);
        unpack(w, v);
        for (int k = 0; k < 16; ++k) {
            __m128i bits = v[k];
            for (int b = 7; b >= 0; --b) {
                const uint16_t word = uint16_t(_mm_movemask_epi8(bits));
                std::memcpy(out + 16 * (8 * k + b) + 2 * group, &word, 2);
                bits = _mm_add_epi8(bits, bits);
            }
        }
    }
}

} // namespace
#endif

void
transpose128Block(const uint8_t *cols, size_t col_stride, Label rows[128])
{
#if defined(HAAC_USE_AESNI)
    transpose128BlockSse2(cols, col_stride, rows);
#else
    transpose128BlockPortable(cols, col_stride, rows);
#endif
}

} // namespace haac
