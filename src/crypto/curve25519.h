/**
 * @file
 * In-repo Curve25519 group arithmetic for the base oblivious transfers.
 *
 * The real-OT layer (gc/base_ot.h) needs a Diffie-Hellman group with
 * full point addition — the Chou-Orlandi construction blinds the
 * receiver's key as R = c*A + x*G — so this implements the twisted
 * Edwards form of Curve25519 (the Ed25519 group of RFC 8032): field
 * arithmetic mod 2^255-19 in five 51-bit limbs on unsigned __int128,
 * complete extended-coordinate addition, and RFC 8032 point
 * compression/decompression.
 *
 * Scalar multiplication is table-driven and constant time in the
 * scalar: a 256-bit scalar is recoded into 65 signed radix-16 digits
 * without a branch, and every table lookup is a masked scan over all
 * entries plus a conditional negate, never a load indexed by a digit.
 * Two shapes, one per kind of base:
 *   - Point::mul, any base: a signed 4-bit fixed window over a
 *     per-call table of 1P..8P (256 doublings, 65 additions);
 *   - Comb, a base known ahead: a 32-row radix-16 comb of
 *     precomputed affine points (65 mixed additions, 4 doublings).
 *     Comb::base() is the process-wide comb of B; the base-OT
 *     receiver builds one for the sender's key A per setup.
 * Point::batchToBytes compresses many points with one field inversion
 * (Montgomery's trick), byte-for-byte what toBytes gives per point.
 *
 * Deliberately small: encryption-only GC needs no signatures and no
 * external library. Decompression branches only on the (public)
 * validity of a received encoding.
 */
#ifndef HAAC_CRYPTO_CURVE25519_H
#define HAAC_CRYPTO_CURVE25519_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/prg.h"

namespace haac {
namespace ec {

/** Serialized (compressed) point and scalar size in bytes. */
inline constexpr size_t kPointBytes = 32;
inline constexpr size_t kScalarBytes = 32;

/** A scalar multiplier, little-endian; any 256-bit value is usable. */
struct Scalar
{
    uint8_t bytes[kScalarBytes] = {};
};

/** Draw a uniform 255-bit scalar from @p rng. */
Scalar randomScalar(Prg &rng);

/** An Ed25519 group element in extended coordinates (X:Y:Z:T). */
class Point
{
  public:
    /** The neutral element (0, 1). */
    Point();

    /** The RFC 8032 base point B. */
    static const Point &base();

    /**
     * Decompress an RFC 8032 encoding.
     *
     * @return false when @p in is not a valid curve point (the caller
     *         must treat that as a protocol error, not a crash).
     */
    static bool fromBytes(const uint8_t in[kPointBytes], Point &out);

    /** Compress to the canonical 32-byte RFC 8032 encoding. */
    void toBytes(uint8_t out[kPointBytes]) const;

    /**
     * Compress @p count points into @p out (count * kPointBytes
     * bytes) with one field inversion for the whole batch.
     */
    static void batchToBytes(const Point *points, size_t count,
                             uint8_t *out);

    Point add(const Point &o) const;
    Point sub(const Point &o) const;
    Point dbl() const;

    /** Become @p o when @p take is set, in constant time. */
    void cmov(const Point &o, bool take);

    /** Variable-base k*P: signed 4-bit fixed window, constant time. */
    static Point mul(const Scalar &k, const Point &p);

    /** Canonical-encoding equality (compares compressed bytes). */
    bool equals(const Point &o) const;

    bool isIdentity() const;

  private:
    friend struct Curve; // the point formulas in curve25519.cc

    // Field elements mod 2^255-19: five unsaturated 51-bit limbs.
    uint64_t X_[5], Y_[5], Z_[5], T_[5];
};

/**
 * Fixed-base comb for one point P: k*P for many k, constant time in k.
 *
 * Row r holds j * 256^r * P for j = 1..8 as affine points (~30 KB), so
 * a multiply is one constant-time lookup and one mixed addition per
 * signed digit plus four doublings. Building a comb costs about as
 * much as three to four Point::mul calls.
 */
class Comb
{
  public:
    explicit Comb(const Point &p);

    /** The comb of the base point B, built once per process. */
    static const Comb &base();

    /** k*P, equal to Point::mul(k, P). */
    Point mul(const Scalar &k) const;

  private:
    friend struct Curve;

    // An affine point prepared for mixed addition: (y+x, y-x, 2dxy).
    struct Niels
    {
        uint64_t yPlusX[5], yMinusX[5], xy2d[5];
    };

    std::vector<Niels> rows_; // 32 rows x 8 entries, row-major
    Niels top_;               // 2^256 * P, the carry digit's addend
};

} // namespace ec
} // namespace haac

#endif // HAAC_CRYPTO_CURVE25519_H
