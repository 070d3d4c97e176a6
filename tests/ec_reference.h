/**
 * @file
 * The textbook double-and-add k*P, kept out of src/ on purpose: it
 * branches on every scalar bit and skips the leading zeros. It is the
 * differential oracle for ec::Point::mul, ec::Comb and batched
 * compression (test_crypto.cc), and the leaky control the timing
 * harness must flag (test_ct.cc).
 */
#ifndef HAAC_TESTS_EC_REFERENCE_H
#define HAAC_TESTS_EC_REFERENCE_H

#include "crypto/curve25519.h"

namespace haac {

/** k*P by MSB-first double-and-add over all 256 bits of @p k. */
inline ec::Point
referenceMul(const ec::Scalar &k, const ec::Point &p)
{
    ec::Point r;
    bool started = false;
    for (int bit = 255; bit >= 0; --bit) {
        if (started)
            r = r.dbl();
        if ((k.bytes[bit / 8] >> (bit % 8)) & 1) {
            r = started ? r.add(p) : p;
            started = true;
        }
    }
    return r;
}

} // namespace haac

#endif // HAAC_TESTS_EC_REFERENCE_H
