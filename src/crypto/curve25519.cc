#include "crypto/curve25519.h"

#include <cstring>
#include <vector>

#include "crypto/ct.h"

namespace haac {
namespace ec {

namespace {

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64(1) << 51) - 1;

// Curve constants as 51-bit limbs; tests/test_crypto.cc cross-checks
// the compressed base point against the RFC 8032 value.
constexpr u64 kD[5] = {0x34dca135978a3ull, 0x1a8283b156ebdull,
                       0x5e7a26001c029ull, 0x739c663a03cbbull,
                       0x52036cee2b6ffull};
constexpr u64 kD2[5] = {0x69b9426b2f159ull, 0x35050762add7aull,
                        0x3cf44c0038052ull, 0x6738cc7407977ull,
                        0x2406d9dc56dffull};
constexpr u64 kSqrtM1[5] = {0x61b274a0ea0b0ull, 0x0d5a5fc8f189dull,
                            0x7ef5e9cbd0c60ull, 0x78595a6804c9eull,
                            0x2b8324804fc1dull};
constexpr u64 kBaseX[5] = {0x62d608f25d51aull, 0x412a4b4f6592aull,
                           0x75b7171a4b31dull, 0x1ff60527118feull,
                           0x216936d3cd6e5ull};
constexpr u64 kBaseY[5] = {0x6666666666658ull, 0x4ccccccccccccull,
                           0x1999999999999ull, 0x3333333333333ull,
                           0x6666666666666ull};
constexpr u64 kBaseT[5] = {0x68ab3a5b7dda3ull, 0x00eea2a5eadbbull,
                           0x2af8df483c27eull, 0x332b375274732ull,
                           0x67875f0fd78b7ull};

// Limb bounds: every feMul/feSq/feSub output is under 2^51 + 2^13;
// feAdd leaves sums of two or three of those, and feMul/feSq accept
// inputs up to 2^54 without overflowing their 128-bit accumulators.

void
feZero(u64 out[5])
{
    out[0] = out[1] = out[2] = out[3] = out[4] = 0;
}

void
feOne(u64 out[5])
{
    out[0] = 1;
    out[1] = out[2] = out[3] = out[4] = 0;
}

void
feCopy(u64 out[5], const u64 a[5])
{
    std::memcpy(out, a, 5 * sizeof(u64));
}

void
feAdd(u64 out[5], const u64 a[5], const u64 b[5])
{
    for (int i = 0; i < 5; ++i)
        out[i] = a[i] + b[i];
}

/** Carry limbs back under 2^51 (+epsilon); keeps values loosely reduced. */
void
feCarry(u64 a[5])
{
    u64 c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
    c = a[1] >> 51; a[1] &= kMask51; a[2] += c;
    c = a[2] >> 51; a[2] &= kMask51; a[3] += c;
    c = a[3] >> 51; a[3] &= kMask51; a[4] += c;
    c = a[4] >> 51; a[4] &= kMask51; a[0] += 19 * c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
}

/**
 * out = a - b, carried. A 4p bias keeps limbs from underflowing for
 * any b up to 2^53 (a sum of two reduced values).
 */
void
feSub(u64 out[5], const u64 a[5], const u64 b[5])
{
    // 4p in radix-51: limb0 = 2^53-76, limbs 1..4 = 2^53-4.
    out[0] = a[0] + 0x1fffffffffffb4ull - b[0];
    out[1] = a[1] + 0x1ffffffffffffcull - b[1];
    out[2] = a[2] + 0x1ffffffffffffcull - b[2];
    out[3] = a[3] + 0x1ffffffffffffcull - b[3];
    out[4] = a[4] + 0x1ffffffffffffcull - b[4];
    feCarry(out);
}

/** Fold five 128-bit column sums back into 51-bit limbs. */
void
feReduce(u64 out[5], u128 r0, u128 r1, u128 r2, u128 r3, u128 r4)
{
    u64 c;
    u64 t0 = u64(r0) & kMask51; c = u64(r0 >> 51);
    r1 += c;
    u64 t1 = u64(r1) & kMask51; c = u64(r1 >> 51);
    r2 += c;
    u64 t2 = u64(r2) & kMask51; c = u64(r2 >> 51);
    r3 += c;
    u64 t3 = u64(r3) & kMask51; c = u64(r3 >> 51);
    r4 += c;
    u64 t4 = u64(r4) & kMask51; c = u64(r4 >> 51);
    t0 += 19 * c;
    c = t0 >> 51; t0 &= kMask51;
    t1 += c;

    out[0] = t0; out[1] = t1; out[2] = t2; out[3] = t3; out[4] = t4;
}

/** The full 128-bit product of two limbs: one 64x64 multiply. */
u128
limbMul(u64 a, u64 b)
{
    return u128(a) * b;
}

void
feMul(u64 out[5], const u64 a[5], const u64 b[5])
{
    const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
    // 19-fold the limb products that wrap past 2^255.
    const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
              b4_19 = 19 * b4;

    feReduce(out,
             limbMul(a0, b0) + limbMul(a1, b4_19) + limbMul(a2, b3_19) +
                 limbMul(a3, b2_19) + limbMul(a4, b1_19),
             limbMul(a0, b1) + limbMul(a1, b0) + limbMul(a2, b4_19) +
                 limbMul(a3, b3_19) + limbMul(a4, b2_19),
             limbMul(a0, b2) + limbMul(a1, b1) + limbMul(a2, b0) +
                 limbMul(a3, b4_19) + limbMul(a4, b3_19),
             limbMul(a0, b3) + limbMul(a1, b2) + limbMul(a2, b1) +
                 limbMul(a3, b0) + limbMul(a4, b4_19),
             limbMul(a0, b4) + limbMul(a1, b3) + limbMul(a2, b2) +
                 limbMul(a3, b1) + limbMul(a4, b0));
}

/**
 * out = a^2: the 15 distinct limb products of feMul(a, a). Doubled
 * and 19-folded limbs stay under 2^64 for inputs under 2^54.
 */
void
feSq(u64 out[5], const u64 a[5])
{
    const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
    const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;

    feReduce(out,
             limbMul(a0, a0) + limbMul(d1, a4_19) + limbMul(d2, a3_19),
             limbMul(d0, a1) + limbMul(d2, a4_19) + limbMul(a3, a3_19),
             limbMul(d0, a2) + limbMul(a1, a1) + limbMul(d3, a4_19),
             limbMul(d0, a3) + limbMul(d1, a2) + limbMul(a4, a4_19),
             limbMul(d0, a4) + limbMul(d1, a3) + limbMul(a2, a2));
}

/** out = a^(2^count) by repeated squaring. */
void
feSqN(u64 out[5], const u64 a[5], int count)
{
    feCopy(out, a);
    for (int i = 0; i < count; ++i)
        feSq(out, out);
}

/** Shared prefix of the inversion/sqrt chains: a^(2^250 - 1). */
void
fePow250m1(u64 out[5], const u64 a[5], u64 *t0_out /* a^11 */)
{
    u64 t0[5], t1[5], t2[5], t3[5];
    feSq(t0, a);                  // 2
    feSq(t1, t0);
    feSq(t1, t1);                 // 8
    feMul(t1, a, t1);             // 9
    feMul(t0, t0, t1);            // 11
    feSq(t2, t0);                 // 22
    feMul(t1, t1, t2);            // 31 = 2^5 - 1
    feSqN(t2, t1, 5);             // 2^10 - 2^5
    feMul(t1, t2, t1);            // 2^10 - 1
    feSqN(t2, t1, 10);            // 2^20 - 2^10
    feMul(t2, t2, t1);            // 2^20 - 1
    feSqN(t3, t2, 20);            // 2^40 - 2^20
    feMul(t2, t3, t2);            // 2^40 - 1
    feSqN(t2, t2, 10);            // 2^50 - 2^10
    feMul(t1, t2, t1);            // 2^50 - 1
    feSqN(t2, t1, 50);            // 2^100 - 2^50
    feMul(t2, t2, t1);            // 2^100 - 1
    feSqN(t3, t2, 100);           // 2^200 - 2^100
    feMul(t2, t3, t2);            // 2^200 - 1
    feSqN(t2, t2, 50);            // 2^250 - 2^50
    feMul(out, t2, t1);           // 2^250 - 1
    if (t0_out)
        feCopy(t0_out, t0);
}

/** out = a^(p-2) = a^-1 (Fermat). */
void
feInvert(u64 out[5], const u64 a[5])
{
    u64 t0[5], t1[5];
    fePow250m1(t1, a, t0);        // a^(2^250-1), t0 = a^11
    feSqN(t1, t1, 5);             // 2^255 - 2^5
    feMul(out, t1, t0);           // 2^255 - 21 = p - 2
}

/**
 * Invert the @p count field elements stored back to back at @p z
 * (5 limbs each) with one feInvert: Montgomery's trick. None may be
 * zero; a point's Z never is.
 */
void
feBatchInvert(u64 *z, size_t count)
{
    if (count == 0)
        return;
    std::vector<u64> prefix(5 * count); // prefix[i] = z_0 * ... * z_i
    feCopy(&prefix[0], z);
    for (size_t i = 1; i < count; ++i)
        feMul(&prefix[5 * i], &prefix[5 * (i - 1)], z + 5 * i);
    u64 inv[5];
    feInvert(inv, &prefix[5 * (count - 1)]);
    for (size_t i = count - 1; i > 0; --i) {
        u64 zi[5];
        feMul(zi, inv, &prefix[5 * (i - 1)]); // 1 / z_i
        feMul(inv, inv, z + 5 * i);           // 1 / (z_0 ... z_{i-1})
        feCopy(z + 5 * i, zi);
    }
    feCopy(z, inv);
}

/** out = a^((p-5)/8) = a^(2^252 - 3), the decompression root helper. */
void
fePow22523(u64 out[5], const u64 a[5])
{
    u64 t1[5];
    fePow250m1(t1, a, nullptr);   // 2^250 - 1
    feSqN(t1, t1, 2);             // 2^252 - 4
    feMul(out, t1, a);            // 2^252 - 3
}

/** Canonical little-endian serialization (fully reduced mod p). */
void
feToBytes(uint8_t out[32], const u64 in[5])
{
    u64 t[5];
    feCopy(t, in);
    feCarry(t);
    feCarry(t);
    // q = 1 iff t >= p; then t mod p = low 255 bits of t + 19q.
    u64 q = (t[0] + 19) >> 51;
    q = (t[1] + q) >> 51;
    q = (t[2] + q) >> 51;
    q = (t[3] + q) >> 51;
    q = (t[4] + q) >> 51;
    t[0] += 19 * q;
    u64 c;
    c = t[0] >> 51; t[0] &= kMask51; t[1] += c;
    c = t[1] >> 51; t[1] &= kMask51; t[2] += c;
    c = t[2] >> 51; t[2] &= kMask51; t[3] += c;
    c = t[3] >> 51; t[3] &= kMask51; t[4] += c;
    t[4] &= kMask51; // drop the 2^255 wrap

    const u64 lo0 = t[0] | (t[1] << 51);
    const u64 lo1 = (t[1] >> 13) | (t[2] << 38);
    const u64 lo2 = (t[2] >> 26) | (t[3] << 25);
    const u64 lo3 = (t[3] >> 39) | (t[4] << 12);
    std::memcpy(out, &lo0, 8);
    std::memcpy(out + 8, &lo1, 8);
    std::memcpy(out + 16, &lo2, 8);
    std::memcpy(out + 24, &lo3, 8);
}

void
feFromBytes(u64 out[5], const uint8_t in[32])
{
    u64 w0, w1, w2, w3;
    std::memcpy(&w0, in, 8);
    std::memcpy(&w1, in + 8, 8);
    std::memcpy(&w2, in + 16, 8);
    std::memcpy(&w3, in + 24, 8);
    out[0] = w0 & kMask51;
    out[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
    out[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
    out[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
    out[4] = (w3 >> 12) & kMask51; // bit 255 (the sign bit) dropped
}

bool
feIsZero(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    uint8_t acc = 0;
    for (int i = 0; i < 32; ++i)
        acc |= bytes[i];
    return acc == 0;
}

bool
feIsNegative(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    return (bytes[0] & 1) != 0;
}

void
feNeg(u64 out[5], const u64 a[5])
{
    u64 zero[5];
    feZero(zero);
    feSub(out, zero, a);
}

/** ctMask(a == b) for small @p a, @p b, without a comparison. */
u64
eqMask(u64 a, u64 b)
{
    return ctMask(((a ^ b) - 1) >> 63);
}

/** out = mask ? in : out, limb by limb. */
void
feCmov(u64 out[5], const u64 in[5], u64 mask)
{
    for (int i = 0; i < 5; ++i)
        out[i] ^= mask & (out[i] ^ in[i]);
}

/**
 * Signed radix-16 digits of @p k, branch-free: e[0..63] in [-8, 7] and
 * a final carry e[64] in {0, 1}, so k = sum e[i] * 16^i for any
 * 256-bit k.
 */
void
recode(int8_t e[65], const Scalar &k)
{
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = int8_t(k.bytes[i] & 15);
        e[2 * i + 1] = int8_t(k.bytes[i] >> 4);
    }
    int carry = 0;
    for (int i = 0; i < 64; ++i) {
        const int d = e[i] + carry; // 0..16
        carry = (d + 8) >> 4;
        e[i] = int8_t(d - 16 * carry);
    }
    e[64] = int8_t(carry);
}

/** The sign (1 when negative) and magnitude of a signed digit. */
u64
digitSign(int8_t d)
{
    return u64(int64_t(d)) >> 63;
}

u64
digitAbs(int8_t d)
{
    const int64_t v = d;
    return u64(v - (-int64_t(digitSign(d)) & (2 * v)));
}

} // namespace

/**
 * The point formulas: the shapes of ref10 (Bernstein et al.), over
 * this file's field. A sum or double is first produced in completed
 * form, then projected to just the coordinates the next step reads.
 */
struct Curve
{
    using Niels = Comb::Niels;

    /** Projective (X:Y:Z), x = X/Z, y = Y/Z: all a doubling reads. */
    struct Proj
    {
        u64 X[5], Y[5], Z[5];
    };

    /** Completed ((X:Z), (Y:T)), x = X/Z, y = Y/T. */
    struct Completed
    {
        u64 X[5], Y[5], Z[5], T[5];
    };

    /** An extended point prepared as an addend: (Y+X, Y-X, Z, 2dT). */
    struct Cached
    {
        u64 yPlusX[5], yMinusX[5], Z[5], t2d[5];
    };

    static void
    toProj(Proj &r, const Completed &p)
    {
        feMul(r.X, p.X, p.T);
        feMul(r.Y, p.Y, p.Z);
        feMul(r.Z, p.Z, p.T);
    }

    static void
    toExt(Point &r, const Completed &p)
    {
        feMul(r.X_, p.X, p.T);
        feMul(r.Y_, p.Y, p.Z);
        feMul(r.Z_, p.Z, p.T);
        feMul(r.T_, p.X, p.Y);
    }

    /** 2(X:Y:Z) (RFC 8032 §5.1.4 doubling; reads no T). */
    static void
    dbl(Completed &r, const u64 X[5], const u64 Y[5], const u64 Z[5])
    {
        u64 t[5];
        feSq(r.X, X);             // XX
        feSq(r.Z, Y);             // YY
        feSq(r.T, Z);
        feAdd(r.T, r.T, r.T);     // 2 ZZ
        feAdd(t, X, Y);
        feSq(t, t);               // (X+Y)^2
        feAdd(r.Y, r.Z, r.X);     // YY + XX
        feSub(r.Z, r.Z, r.X);     // YY - XX
        feSub(r.X, t, r.Y);       // 2XY
        feSub(r.T, r.T, r.Z);     // 2ZZ - (YY - XX)
    }

    /** r = 2^count * p, count >= 1, without T in between. */
    static void
    dblN(Point &r, const Point &p, int count)
    {
        Completed c;
        Proj q;
        dbl(c, p.X_, p.Y_, p.Z_);
        for (int i = 1; i < count; ++i) {
            toProj(q, c);
            dbl(c, q.X, q.Y, q.Z);
        }
        toExt(r, c);
    }

    /** Complete addition p + q (RFC 8032 §5.1.4), q cached. */
    static void
    add(Completed &r, const Point &p, const Cached &q)
    {
        u64 t[5];
        feAdd(r.X, p.Y_, p.X_);
        feSub(r.Y, p.Y_, p.X_);
        feMul(r.Z, r.X, q.yPlusX);   // B = (Y1+X1)(Y2+X2)
        feMul(r.Y, r.Y, q.yMinusX);  // A = (Y1-X1)(Y2-X2)
        feMul(r.T, p.T_, q.t2d);     // C = 2d T1 T2
        feMul(t, p.Z_, q.Z);
        feAdd(t, t, t);              // D = 2 Z1 Z2
        feSub(r.X, r.Z, r.Y);        // E = B - A
        feAdd(r.Y, r.Z, r.Y);        // H = B + A
        feAdd(r.Z, t, r.T);          // G = D + C
        feSub(r.T, t, r.T);          // F = D - C
    }

    /** The same with an affine addend (Z2 = 1). */
    static void
    madd(Completed &r, const Point &p, const Niels &q)
    {
        u64 t[5];
        feAdd(r.X, p.Y_, p.X_);
        feSub(r.Y, p.Y_, p.X_);
        feMul(r.Z, r.X, q.yPlusX);
        feMul(r.Y, r.Y, q.yMinusX);
        feMul(r.T, p.T_, q.xy2d);
        feAdd(t, p.Z_, p.Z_);
        feSub(r.X, r.Z, r.Y);
        feAdd(r.Y, r.Z, r.Y);
        feAdd(r.Z, t, r.T);
        feSub(r.T, t, r.T);
    }

    static void
    cache(Cached &r, const Point &p)
    {
        feAdd(r.yPlusX, p.Y_, p.X_);
        feSub(r.yMinusX, p.Y_, p.X_);
        feCopy(r.Z, p.Z_);
        feMul(r.t2d, p.T_, kD2);
    }

    /** -(x, y) = (-x, y): swap Y+X with Y-X and negate the T term. */
    static void
    negate(Cached &r, const Cached &p)
    {
        feCopy(r.yPlusX, p.yMinusX);
        feCopy(r.yMinusX, p.yPlusX);
        feCopy(r.Z, p.Z);
        feNeg(r.t2d, p.t2d);
    }

    static void
    negate(Niels &r, const Niels &p)
    {
        feCopy(r.yPlusX, p.yMinusX);
        feCopy(r.yMinusX, p.yPlusX);
        feNeg(r.xy2d, p.xy2d);
    }

    static void
    cmov(Point &r, const Point &p, u64 mask)
    {
        feCmov(r.X_, p.X_, mask);
        feCmov(r.Y_, p.Y_, mask);
        feCmov(r.Z_, p.Z_, mask);
        feCmov(r.T_, p.T_, mask);
    }

    static void
    cmov(Cached &r, const Cached &p, u64 mask)
    {
        feCmov(r.yPlusX, p.yPlusX, mask);
        feCmov(r.yMinusX, p.yMinusX, mask);
        feCmov(r.Z, p.Z, mask);
        feCmov(r.t2d, p.t2d, mask);
    }

    static void
    cmov(Niels &r, const Niels &p, u64 mask)
    {
        feCmov(r.yPlusX, p.yPlusX, mask);
        feCmov(r.yMinusX, p.yMinusX, mask);
        feCmov(r.xy2d, p.xy2d, mask);
    }

    static void
    identity(Cached &r)
    {
        feOne(r.yPlusX);
        feOne(r.yMinusX);
        feOne(r.Z);
        feZero(r.t2d);
    }

    static void
    identity(Niels &r)
    {
        feOne(r.yPlusX);
        feOne(r.yMinusX);
        feZero(r.xy2d);
    }

    /**
     * r = digit * P from row[j] = (j+1) * P, for a digit in [-8, 8]:
     * every entry is read and masked in, then the result is negated
     * under a mask. No load or branch depends on the digit.
     */
    template <typename Entry>
    static void
    select(Entry &r, const Entry row[8], int8_t digit)
    {
        const u64 mag = digitAbs(digit);
        identity(r);
        for (u64 j = 0; j < 8; ++j)
            cmov(r, row[j], eqMask(mag, j + 1));
        Entry neg;
        negate(neg, r);
        cmov(r, neg, ctMask(digitSign(digit)));
    }

    /** The signed 4-bit fixed window behind Point::mul. */
    static Point
    ladder(const Scalar &k, const Point &p)
    {
        Cached table[8]; // (j+1) * p
        Completed c;
        Point m;
        cache(table[0], p);
        dblN(m, p, 1);
        cache(table[1], m);
        for (int j = 2; j < 8; ++j) {
            add(c, p, table[j - 1]);
            toExt(m, c);
            cache(table[j], m);
        }

        int8_t e[65];
        recode(e, k);
        Point h;
        Cached t;
        select(t, table, e[64]);
        add(c, h, t);
        toExt(h, c);
        for (int i = 63; i >= 0; --i) {
            dblN(h, h, 4);
            select(t, table, e[i]);
            add(c, h, t);
            toExt(h, c);
        }
        return h;
    }

    /** Fill @p comb with the multiples of @p p it holds. */
    static void
    build(Comb &comb, const Point &p)
    {
        // 257 extended points: row r entry j is (j+1) * 256^r * p, the
        // last is 256^32 * p = 2^256 * p.
        std::vector<Point> pts(32 * 8 + 1);
        Point b = p;
        Cached cb;
        Completed c;
        for (size_t r = 0; r < 32; ++r) {
            Point *row = &pts[8 * r];
            row[0] = b;
            cache(cb, b);
            dblN(row[1], b, 1);
            for (int j = 2; j < 8; ++j) {
                add(c, row[j - 1], cb);
                toExt(row[j], c);
            }
            dblN(b, row[7], 5); // 32 * 8b = 256b
        }
        pts.back() = b;

        // One inversion makes all 257 affine.
        std::vector<u64> zinv(5 * pts.size());
        for (size_t i = 0; i < pts.size(); ++i)
            feCopy(&zinv[5 * i], pts[i].Z_);
        feBatchInvert(zinv.data(), pts.size());
        comb.rows_.resize(32 * 8);
        for (size_t i = 0; i < pts.size(); ++i) {
            Niels &n = i < comb.rows_.size() ? comb.rows_[i] : comb.top_;
            u64 x[5], y[5];
            feMul(x, pts[i].X_, &zinv[5 * i]);
            feMul(y, pts[i].Y_, &zinv[5 * i]);
            feAdd(n.yPlusX, y, x);
            feSub(n.yMinusX, y, x);
            feMul(n.xy2d, x, y);
            feMul(n.xy2d, n.xy2d, kD2);
        }
    }

    /** The comb walk behind Comb::mul: odd digits, x16, even digits. */
    static Point
    combMul(const Comb &comb, const Scalar &k)
    {
        int8_t e[65];
        recode(e, k);
        Point h;
        Completed c;
        Niels t;
        for (int i = 1; i < 64; i += 2) {
            select(t, &comb.rows_[8 * (i / 2)], e[i]);
            madd(c, h, t);
            toExt(h, c);
        }
        dblN(h, h, 4);
        for (int i = 0; i < 64; i += 2) {
            select(t, &comb.rows_[8 * (i / 2)], e[i]);
            madd(c, h, t);
            toExt(h, c);
        }
        identity(t);
        cmov(t, comb.top_, ctMask(u64(e[64])));
        madd(c, h, t);
        toExt(h, c);
        return h;
    }
};

Scalar
randomScalar(Prg &rng)
{
    Scalar s;
    const Label a = rng.nextLabel();
    const Label b = rng.nextLabel();
    a.toBytes(s.bytes);
    b.toBytes(s.bytes + 16);
    s.bytes[31] &= 0x7f; // < 2^255
    return s;
}

Point::Point()
{
    feZero(X_);
    feOne(Y_);
    feOne(Z_);
    feZero(T_);
}

const Point &
Point::base()
{
    static const Point b = [] {
        Point p;
        feCopy(p.X_, kBaseX);
        feCopy(p.Y_, kBaseY);
        feOne(p.Z_);
        feCopy(p.T_, kBaseT);
        return p;
    }();
    return b;
}

Point
Point::add(const Point &o) const
{
    Curve::Cached q;
    Curve::cache(q, o);
    Curve::Completed c;
    Curve::add(c, *this, q);
    Point r;
    Curve::toExt(r, c);
    return r;
}

Point
Point::sub(const Point &o) const
{
    Curve::Cached q, neg;
    Curve::cache(q, o);
    Curve::negate(neg, q);
    Curve::Completed c;
    Curve::add(c, *this, neg);
    Point r;
    Curve::toExt(r, c);
    return r;
}

Point
Point::dbl() const
{
    Point r;
    Curve::dblN(r, *this, 1);
    return r;
}

void
Point::cmov(const Point &o, bool take)
{
    Curve::cmov(*this, o, ctMask(u64(take)));
}

Point
Point::mul(const Scalar &k, const Point &p)
{
    return Curve::ladder(k, p);
}

void
Point::batchToBytes(const Point *points, size_t count, uint8_t *out)
{
    std::vector<u64> zinv(5 * count);
    for (size_t i = 0; i < count; ++i)
        feCopy(&zinv[5 * i], points[i].Z_);
    feBatchInvert(zinv.data(), count);
    for (size_t i = 0; i < count; ++i) {
        u64 x[5], y[5];
        uint8_t xbytes[32];
        feMul(x, points[i].X_, &zinv[5 * i]);
        feMul(y, points[i].Y_, &zinv[5 * i]);
        uint8_t *enc = out + kPointBytes * i;
        feToBytes(enc, y);
        feToBytes(xbytes, x);
        enc[31] |= uint8_t((xbytes[0] & 1) << 7); // the sign of x
    }
}

void
Point::toBytes(uint8_t out[kPointBytes]) const
{
    batchToBytes(this, 1, out);
}

bool
Point::fromBytes(const uint8_t in[kPointBytes], Point &out)
{
    u64 y[5], y2[5], u[5], v[5], x[5], t[5], check[5], one[5];
    feFromBytes(y, in);
    const bool sign = (in[31] & 0x80) != 0;

    feSq(y2, y);
    feOne(one);
    feSub(u, y2, one);            // u = y^2 - 1
    feMul(v, y2, kD);
    feAdd(v, v, one);
    feCarry(v);                   // v = d y^2 + 1

    // Candidate root x = u v^3 (u v^7)^((p-5)/8)  (RFC 8032 §5.1.3).
    u64 v3[5], v7[5];
    feSq(v3, v);
    feMul(v3, v3, v);             // v^3
    feSq(v7, v3);
    feMul(v7, v7, v);             // v^7
    feMul(t, u, v7);
    fePow22523(t, t);
    feMul(x, u, v3);
    feMul(x, x, t);

    feSq(check, x);
    feMul(check, check, v);       // v x^2
    u64 diff[5], sum[5];
    feSub(diff, check, u);
    feAdd(sum, check, u);
    feCarry(sum);
    if (!feIsZero(diff)) {
        if (!feIsZero(sum))
            return false;         // not a square: not on the curve
        feMul(x, x, kSqrtM1);
    }

    if (feIsZero(x) && sign)
        return false;             // -0 is not canonical
    if (feIsNegative(x) != sign)
        feNeg(x, x);

    feCopy(out.X_, x);
    feCopy(out.Y_, y);
    feOne(out.Z_);
    feMul(out.T_, x, y);
    return true;
}

Comb::Comb(const Point &p)
{
    Curve::build(*this, p);
}

const Comb &
Comb::base()
{
    static const Comb b(Point::base());
    return b;
}

Point
Comb::mul(const Scalar &k) const
{
    return Curve::combMul(*this, k);
}

bool
Point::equals(const Point &o) const
{
    uint8_t a[kPointBytes], b[kPointBytes];
    toBytes(a);
    o.toBytes(b);
    return std::memcmp(a, b, kPointBytes) == 0;
}

bool
Point::isIdentity() const
{
    return equals(Point());
}

} // namespace ec
} // namespace haac
