/**
 * @file
 * GF(2^128) multiplication for the KOS15 OT consistency check.
 *
 * The field is GF(2)[x] / (x^128 + x^7 + x^2 + x + 1) — the standard
 * carryless-multiplication modulus — with a Label's bit i (bit i of
 * lo for i < 64, of hi above) as the coefficient of x^i. The OT
 * extension uses products chi_j * t_j as a universal hash over the
 * receiver's correlation rows (gc/ot_ext.cc): one multiply per
 * extended OT row, on secret rows. On x86 CPUs with PCLMULQDQ the
 * product is four carryless multiplies and two folds by 0x87; the
 * fallback is a branch-free shift-and-add whose time does not depend
 * on either operand.
 */
#ifndef HAAC_CRYPTO_GF128_H
#define HAAC_CRYPTO_GF128_H

#include <cstddef>

#include "crypto/label.h"

namespace haac {

/** a * b in GF(2^128), modulus x^128 + x^7 + x^2 + x + 1. */
Label gf128Mul(const Label &a, const Label &b);

/**
 * The sum of a[j] * b[j] over j < n, the KOS15 combination. With
 * PCLMULQDQ the products are summed unreduced and reduced once.
 */
Label gf128InnerProduct(const Label *a, const Label *b, size_t n);

/** The same product in portable constant-time code (the reference). */
Label gf128MulPortable(const Label &a, const Label &b);

} // namespace haac

#endif // HAAC_CRYPTO_GF128_H
