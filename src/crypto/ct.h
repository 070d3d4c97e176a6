/**
 * @file
 * Constant-time selection: masks, label selects and masked XORs whose
 * instruction stream and memory accesses do not depend on the secret
 * bit that drives them. The base-OT group (crypto/curve25519.cc) and
 * the OT extension (gc/ot_ext.cc) select through these instead of
 * branching on a secret.
 */
#ifndef HAAC_CRYPTO_CT_H
#define HAAC_CRYPTO_CT_H

#include <cstddef>
#include <cstdint>

#include "crypto/label.h"

namespace haac {

/**
 * All ones when @p bit (0 or 1) is set, else zero. The empty asm hides
 * the value from the optimizer, so no masked select built on it can be
 * turned back into a branch on a secret.
 */
inline uint64_t
ctMask(uint64_t bit)
{
    uint64_t mask = 0 - bit;
    __asm__("" : "+r"(mask));
    return mask;
}

/** @p b when @p mask is all ones, @p a when it is zero. */
inline Label
ctSelect(uint64_t mask, const Label &a, const Label &b)
{
    return Label(a.lo ^ (mask & (a.lo ^ b.lo)),
                 a.hi ^ (mask & (a.hi ^ b.hi)));
}

/** dst ^= src & mask over @p n bytes: src is XORed in or not, alike. */
inline void
ctXorBytes(uint64_t mask, uint8_t *dst, const uint8_t *src, size_t n)
{
    const uint8_t m = uint8_t(mask);
    for (size_t i = 0; i < n; ++i)
        dst[i] ^= src[i] & m;
}

} // namespace haac

#endif // HAAC_CRYPTO_CT_H
