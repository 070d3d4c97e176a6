/**
 * @file
 * Bit-matrix transpose for the IKNP OT extension.
 *
 * The extension's receiver generates its correlation matrix column by
 * column (one PRG stream per base OT) but both parties hash it row by
 * row (one 128-bit row per extended OT). The pivot between the two
 * views is a 128 x 128 bit transpose, done 64 x 64 words at a time
 * with the butterfly-exchange algorithm, so a batch of m OTs costs
 * O(m log 128) word operations instead of O(128 m) bit probes. x86
 * builds use SSE2 instead: a byte transpose by unpacks, then one
 * movemask per 16 entries.
 */
#ifndef HAAC_CRYPTO_BITMATRIX_H
#define HAAC_CRYPTO_BITMATRIX_H

#include <cstddef>
#include <cstdint>

#include "crypto/label.h"

namespace haac {

/**
 * In-place 64 x 64 bit transpose.
 *
 * Convention: entry (r, c) is bit c (LSB-first) of word r; on return
 * bit c of word r holds the old bit r of word c.
 */
void transpose64(uint64_t m[64]);

/**
 * Transpose one 128-row block of a column-major 128-column bit matrix.
 *
 * @param cols column-major storage: column i starts at
 *        cols + i * col_stride; entry (r, i) is bit r (LSB-first,
 *        counted from the start of the block) of that column.
 * @param col_stride bytes between consecutive columns.
 * @param rows receives 128 row Labels; bit i of rows[r] is entry (r, i).
 */
void transpose128Block(const uint8_t *cols, size_t col_stride,
                       Label rows[128]);

/** The same transpose by 64 x 64 butterflies (the reference). */
void transpose128BlockPortable(const uint8_t *cols, size_t col_stride,
                               Label rows[128]);

} // namespace haac

#endif // HAAC_CRYPTO_BITMATRIX_H
