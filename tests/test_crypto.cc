/**
 * @file
 * Unit tests for the crypto substrate: AES-128 against FIPS-197
 * vectors, label algebra, PRG determinism, the Half-Gate hashes,
 * GF(2^128) arithmetic, and the base-OT group arithmetic (Curve25519)
 * plus the OT-extension bit transpose. Each hardware fast path (AES
 * key schedule, fused gate hash, carryless multiply) is diffed against
 * its portable reference; on a host without the extensions the two
 * sides are the same code and the diffs pass trivially.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/bitmatrix.h"
#include "crypto/curve25519.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"
#include "crypto/label.h"
#include "crypto/prg.h"
#include "ec_reference.h"

namespace haac {
namespace {

std::array<uint8_t, 16>
fromHex(const std::string &hex)
{
    std::array<uint8_t, 16> out{};
    for (size_t i = 0; i < 16; ++i)
        out[i] = uint8_t(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
    return out;
}

TEST(Aes128, Fips197AppendixCVector)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, Fips197AppendixBVector)
{
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto pt = fromHex("3243f6a8885a308d313198a2e0370734");
    const auto want = fromHex("3925841d02dc09fbdc118597196a0b32");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, KeyScheduleFirstExpansionWord)
{
    // FIPS-197 Appendix A.1: w4 = a0fafe17 for the Appendix B key.
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    Aes128 aes(key.data());
    const auto &rk = aes.roundKeys();
    EXPECT_EQ(rk[16], 0xa0);
    EXPECT_EQ(rk[17], 0xfa);
    EXPECT_EQ(rk[18], 0xfe);
    EXPECT_EQ(rk[19], 0x17);
}

TEST(Aes128, EncryptIsDeterministicAndKeyDependent)
{
    const auto key1 = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto key2 = fromHex("000102030405060708090a0b0c0d0e1f");
    Aes128 a(key1.data()), b(key1.data()), c(key2.data());
    Label x(0x1234, 0x5678);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
    EXPECT_NE(a.encryptBlock(x), c.encryptBlock(x));
}

TEST(Aes128, LabelConstructorMatchesByteConstructor)
{
    Label key(0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull);
    uint8_t bytes[16];
    key.toBytes(bytes);
    Aes128 a(key), b(bytes);
    Label x(42, 43);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
}

TEST(Aes128, KeyScheduleMatchesPortableReference)
{
    Prg prg(0x6b73);
    for (int i = 0; i < 20000; ++i) {
        uint8_t key[16];
        prg.nextLabel().toBytes(key);
        ASSERT_EQ(Aes128(key).roundKeys(), aes128KeySchedulePortable(key))
            << "key " << i;
    }
}

TEST(Label, XorAlgebra)
{
    Label a(0xdeadbeef, 0xfeedface);
    Label b(0x12345678, 0x9abcdef0);
    EXPECT_EQ(a ^ b, b ^ a);
    EXPECT_EQ((a ^ b) ^ b, a);
    EXPECT_TRUE((a ^ a).isZero());
}

TEST(Label, LsbManipulation)
{
    Label a(0x2, 0x0);
    EXPECT_FALSE(a.lsb());
    a.setLsb(true);
    EXPECT_TRUE(a.lsb());
    EXPECT_EQ(a.lo, 0x3u);
    a.setLsb(false);
    EXPECT_EQ(a.lo, 0x2u);
}

TEST(Label, ByteRoundTrip)
{
    Label a(0x1122334455667788ull, 0x99aabbccddeeff00ull);
    uint8_t buf[16];
    a.toBytes(buf);
    EXPECT_EQ(Label::fromBytes(buf), a);
}

TEST(Label, HexFormat)
{
    Label a(0x1ull, 0x0ull);
    EXPECT_EQ(a.toHex(),
              "00000000000000000000000000000001");
}

TEST(Prg, DeterministicPerSeed)
{
    Prg a(123), b(123), c(124);
    for (int i = 0; i < 32; ++i) {
        Label la = a.nextLabel();
        EXPECT_EQ(la, b.nextLabel());
        EXPECT_NE(la, c.nextLabel());
    }
}

TEST(Prg, LabelsLookRandom)
{
    Prg prg(7);
    std::set<uint64_t> seen;
    int ones = 0;
    for (int i = 0; i < 256; ++i) {
        Label l = prg.nextLabel();
        seen.insert(l.lo);
        ones += int(l.lo & 1);
    }
    EXPECT_EQ(seen.size(), 256u);
    EXPECT_GT(ones, 80);
    EXPECT_LT(ones, 176);
}

TEST(Prg, RangeIsUnbiasedBounds)
{
    Prg prg(9);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = prg.nextRange(10);
        EXPECT_LT(v, 10u);
    }
}

TEST(Prg, SeedSequenceNeverRepeats)
{
    // A nonzero base counts up across single draws and reservations.
    SeedSequence seq(100);
    EXPECT_EQ(seq.next(), 100u);
    EXPECT_EQ(seq.next(3), 101u); // 101, 102, 103
    EXPECT_EQ(seq.next(), 104u);

    // Base 0 draws from OS entropy: no two draws, in one sequence or
    // two, coincide (a 2^-64 event per pair).
    SeedSequence a, b;
    const uint64_t x = a.next();
    EXPECT_NE(x, a.next());
    EXPECT_NE(x, b.next());
}

TEST(Aes128, EncryptBlocksMatchesOneBlockAtATime)
{
    // Every count up to two full pipeline groups plus one, in place
    // and out of place.
    const Aes128 aes(Label(0x61657362, 0x6c6b7321));
    Prg prg(0x6562);
    for (size_t n = 0; n <= 2 * kAesBlocksInFlight + 1; ++n) {
        std::vector<Label> in(n), out(n);
        for (Label &l : in)
            l = prg.nextLabel();
        aes.encryptBlocks(in.data(), out.data(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], aes.encryptBlock(in[i])) << "n=" << n;
        aes.encryptBlocks(in.data(), in.data(), n);
        EXPECT_EQ(in, out) << "n=" << n;
    }
}

/**
 * The PRG stream drawn one AES block at a time: block k is
 * AES_key(k || "HAAC_PRG"), every draw takes whole blocks, and
 * nextU64() halves a block, low word first.
 */
class ReferencePrg
{
  public:
    explicit ReferencePrg(const Label &key) : aes_(key) {}

    Label
    nextLabel()
    {
        return aes_.encryptBlock(Label(counter_++, 0x484141435f505247ull));
    }

    uint64_t
    nextU64()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_.hi;
        }
        spare_ = nextLabel();
        haveSpare_ = true;
        return spare_.lo;
    }

    void
    nextBytes(uint8_t *out, size_t n)
    {
        for (size_t at = 0; at < n; at += kLabelBytes) {
            uint8_t block[kLabelBytes];
            nextLabel().toBytes(block);
            std::memcpy(out + at, block, std::min(kLabelBytes, n - at));
        }
    }

  private:
    Aes128 aes_;
    uint64_t counter_ = 0;
    Label spare_;
    bool haveSpare_ = false;
};

TEST(Prg, StreamMatchesOneBlockPerCounter)
{
    // Mixed draws of every kind, with byte counts on both sides of a
    // block and of the kAesBlocksInFlight-block buffer, so partial
    // tails and refills land at every offset in the buffer.
    const Label key(0x707267, 0x73747265616d);
    Prg prg(key);
    ReferencePrg ref(key);
    for (int round = 0; round < 3; ++round) {
        for (const size_t n : {0, 1, 15, 16, 17, 127, 128, 129, 1040}) {
            std::vector<uint8_t> got(n), want(n);
            prg.nextBytes(got.data(), n);
            ref.nextBytes(want.data(), n);
            ASSERT_EQ(got, want) << "nextBytes(" << n << ")";
            ASSERT_EQ(prg.nextLabel(), ref.nextLabel()) << "after " << n;
            ASSERT_EQ(prg.nextU64(), ref.nextU64()) << "after " << n;
            ASSERT_EQ(prg.nextBit(), (ref.nextU64() & 1) != 0)
                << "after " << n;
            if (n % 2 == 1)
                ASSERT_EQ(prg.nextU64(), ref.nextU64()) << "after " << n;
        }
    }
    // The seed constructor keys the same stream.
    Prg a(0x5eed), b(0x5eed);
    uint8_t bytes[40];
    a.nextBytes(bytes, sizeof bytes);
    EXPECT_EQ(Label::fromBytes(bytes + 16), [&] {
        b.nextLabel();
        return b.nextLabel();
    }());
}

TEST(HalfGateHash, RekeyedMatchesHasherObject)
{
    Label x(0xabc, 0xdef);
    for (uint64_t tweak : {0ull, 1ull, 77ull, 1ull << 40}) {
        RekeyedHasher h(tweak);
        EXPECT_EQ(h(x), hashRekeyed(x, tweak));
    }
}

TEST(HalfGateHash, TweakSeparatesOutputs)
{
    Label x(1, 2);
    EXPECT_NE(hashRekeyed(x, 0), hashRekeyed(x, 1));
    EXPECT_NE(hashRekeyed(x, 2), hashRekeyed(x, 3));
}

TEST(HalfGateHash, InputSeparatesOutputs)
{
    Label x(1, 2), y(1, 3);
    EXPECT_NE(hashRekeyed(x, 5), hashRekeyed(y, 5));
}

TEST(HalfGateHash, FixedKeyDiffersFromRekeyed)
{
    FixedKeyHasher fixed;
    Label x(11, 22);
    EXPECT_NE(fixed(x, 3), hashRekeyed(x, 3));
    EXPECT_EQ(fixed(x, 3), fixed(x, 3));
    EXPECT_NE(fixed(x, 3), fixed(x, 4));
}

TEST(HalfGateHash, FusedMatchesPerBlockForEveryShape)
{
    // 2 + 2 garbles an AND, 1 + 1 evaluates one, 2 + 0 and 1 + 0 mask
    // OT-extension labels; the rest of the shapes come for free. The
    // fixed-key ablation serves the same shapes.
    const FixedKeyHasher fixed;
    Prg prg(0x4655);
    for (int trial = 0; trial < 2000; ++trial) {
        const uint64_t tweak = prg.nextU64() >> (trial % 64);
        Label x[4], out[4], fixed_out[4];
        for (Label &l : x)
            l = prg.nextLabel();
        for (int n0 = 1; n0 <= 2; ++n0) {
            for (int n1 = 0; n1 <= 2; ++n1) {
                hashRekeyedFused(tweak, x, n0, n1, out);
                fixed(tweak, x, n0, n1, fixed_out);
                for (int i = 0; i < n0 + n1; ++i) {
                    const uint64_t t = tweak + (i < n0 ? 0 : 1);
                    ASSERT_EQ(out[i], hashRekeyed(x[i], t))
                        << "shape " << n0 << "+" << n1 << " block " << i;
                    ASSERT_EQ(fixed_out[i], fixed(x[i], t))
                        << "shape " << n0 << "+" << n1 << " block " << i;
                }
            }
        }
    }
}

TEST(HalfGateHash, FusedHashesInPlace)
{
    Label x[4] = {Label(1, 2), Label(3, 4), Label(5, 6), Label(7, 8)};
    Label want[4];
    hashRekeyedFused(40, x, 2, 2, want);
    hashRekeyedFused(40, x, 2, 2, x);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(x[i], want[i]);
}

TEST(HalfGateHash, FusedRejectsUnsupportedShapes)
{
    Label x[4], out[4];
    EXPECT_THROW(hashRekeyedFused(0, x, 0, 2, out), std::invalid_argument);
    EXPECT_THROW(hashRekeyedFused(0, x, 3, 0, out), std::invalid_argument);
    EXPECT_THROW(hashRekeyedFused(0, x, 1, 3, out), std::invalid_argument);
}

TEST(HalfGateHash, BatchMatchesPerBlockForEveryCount)
{
    // One or two blocks under each of count consecutive tweaks, for
    // counts around a full pipeline group, in place and out of place.
    Prg prg(0x4261);
    for (const int per : {1, 2}) {
        for (size_t count = 0; count <= 17; ++count) {
            const uint64_t tweak = prg.nextU64();
            std::vector<Label> x(per * count), out(per * count);
            for (Label &l : x)
                l = prg.nextLabel();
            hashRekeyedBatch(tweak, x.data(), count, per, out.data());
            for (size_t g = 0; g < count; ++g)
                for (int i = 0; i < per; ++i)
                    ASSERT_EQ(out[per * g + i],
                              hashRekeyed(x[per * g + i], tweak + g))
                        << per << " per tweak, count " << count;
            hashRekeyedBatch(tweak, x.data(), count, per, x.data());
            EXPECT_EQ(x, out) << per << " per tweak, count " << count;
        }
    }
    Label x[3], out[3];
    EXPECT_THROW(hashRekeyedBatch(0, x, 1, 0, out), std::invalid_argument);
    EXPECT_THROW(hashRekeyedBatch(0, x, 1, 3, out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GF(2^128) (the KOS15 check)
// ---------------------------------------------------------------------------

TEST(Gf128, KnownAnswers)
{
    const Label x(2, 0);
    const Label x127(0, uint64_t(1) << 63);
    const Label reduced(0x87, 0); // x^128 = x^7 + x^2 + x + 1
    const Label one(1, 0);
    const Label a(0x0123456789abcdefull, 0xfedcba9876543210ull);
    for (auto mul : {gf128Mul, gf128MulPortable}) {
        EXPECT_EQ(mul(x, x127), reduced);
        EXPECT_EQ(mul(x127, x), reduced);
        EXPECT_EQ(mul(one, a), a);
        EXPECT_EQ(mul(a, one), a);
        EXPECT_TRUE(mul(a, Label()).isZero());
    }
}

TEST(Gf128, CommutativeAndDistributive)
{
    Prg prg(0x6766);
    for (int i = 0; i < 2000; ++i) {
        const Label a = prg.nextLabel(), b = prg.nextLabel(),
                    c = prg.nextLabel();
        ASSERT_EQ(gf128Mul(a, b), gf128Mul(b, a));
        ASSERT_EQ(gf128Mul(a, b ^ c), gf128Mul(a, b) ^ gf128Mul(a, c));
        ASSERT_EQ(gf128Mul(gf128Mul(a, b), c), gf128Mul(a, gf128Mul(b, c)));
    }
}

TEST(Gf128, MatchesPortableReference)
{
    Prg prg(0x636c);
    for (int i = 0; i < 100000; ++i) {
        const Label a = prg.nextLabel(), b = prg.nextLabel();
        ASSERT_EQ(gf128Mul(a, b), gf128MulPortable(a, b)) << "pair " << i;
    }
}

TEST(Gf128, InnerProductMatchesSumOfProducts)
{
    Prg prg(0x6970);
    for (const size_t n : {0, 1, 2, 127, 128, 300}) {
        std::vector<Label> a(n), b(n);
        Label want;
        for (size_t j = 0; j < n; ++j) {
            a[j] = prg.nextLabel();
            b[j] = prg.nextLabel();
            want ^= gf128MulPortable(a[j], b[j]);
        }
        EXPECT_EQ(gf128InnerProduct(a.data(), b.data(), n), want)
            << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// Curve25519 (the base-OT group)
// ---------------------------------------------------------------------------

std::string
pointHex(const ec::Point &p)
{
    uint8_t bytes[ec::kPointBytes];
    p.toBytes(bytes);
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xf];
    }
    return s;
}

TEST(Curve25519, BasePointCompressesToRfc8032Encoding)
{
    // The canonical Ed25519 base point: y = 4/5 mod p, x even.
    EXPECT_EQ(pointHex(ec::Point::base()),
              "58666666666666666666666666666666"
              "66666666666666666666666666666666");
}

TEST(Curve25519, GroupOrderAnnihilatesTheBasePoint)
{
    // ell = 2^252 + 27742317777372353535851937790883648493,
    // little-endian.
    const uint8_t ell[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12,
                             0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                             0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x10};
    ec::Scalar s;
    std::memcpy(s.bytes, ell, sizeof(ell));
    EXPECT_TRUE(ec::Point::mul(s, ec::Point::base()).isIdentity());
}

TEST(Curve25519, DiffieHellmanAgrees)
{
    Prg rng(0xec25519);
    for (int round = 0; round < 4; ++round) {
        const ec::Scalar a = ec::randomScalar(rng);
        const ec::Scalar b = ec::randomScalar(rng);
        const ec::Point aG = ec::Point::mul(a, ec::Point::base());
        const ec::Point bG = ec::Point::mul(b, ec::Point::base());
        EXPECT_TRUE(ec::Point::mul(b, aG).equals(ec::Point::mul(a, bG)));
        EXPECT_FALSE(aG.equals(bG));
    }
}

TEST(Curve25519, CompressDecompressRoundtrips)
{
    Prg rng(77);
    for (int round = 0; round < 8; ++round) {
        const ec::Scalar k = ec::randomScalar(rng);
        const ec::Point p = ec::Point::mul(k, ec::Point::base());
        uint8_t bytes[ec::kPointBytes];
        p.toBytes(bytes);
        ec::Point q;
        ASSERT_TRUE(ec::Point::fromBytes(bytes, q));
        EXPECT_TRUE(q.equals(p));
    }
}

TEST(Curve25519, AddSubCancel)
{
    Prg rng(5);
    const ec::Point p =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    const ec::Point q =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    EXPECT_TRUE(p.add(q).sub(q).equals(p));
    EXPECT_TRUE(p.sub(p).isIdentity());
    EXPECT_TRUE(p.add(ec::Point()).equals(p));
    EXPECT_TRUE(p.dbl().equals(p.add(p)));
}

/** ell = 2^252 + 27742317777372353535851937790883648493 + @p delta. */
ec::Scalar
ellPlus(int delta)
{
    ec::Scalar s;
    const uint8_t ell[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12,
                             0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                             0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x10};
    std::memcpy(s.bytes, ell, sizeof(ell));
    s.bytes[0] = uint8_t(s.bytes[0] + delta); // no carry for |delta| < 2
    return s;
}

/** The edge scalars plus 200 seeded ones over all 256 bits. */
std::vector<ec::Scalar>
differentialScalars()
{
    std::vector<ec::Scalar> ks(3);
    ks[1].bytes[0] = 1;
    ks[2].bytes[0] = 2;
    ks.push_back(ellPlus(-1));
    ks.push_back(ellPlus(0));
    ks.push_back(ellPlus(1));
    ec::Scalar top; // 2^255 - 1, then 2^256 - 1
    std::memset(top.bytes, 0xff, sizeof(top.bytes));
    top.bytes[31] = 0x7f;
    ks.push_back(top);
    top.bytes[31] = 0xff;
    ks.push_back(top);
    Prg rng(0xd1ff);
    for (int i = 0; i < 200; ++i) {
        ec::Scalar k;
        rng.nextLabel().toBytes(k.bytes);
        rng.nextLabel().toBytes(k.bytes + 16);
        ks.push_back(k);
    }
    return ks;
}

/** (0, -1), the point of order 2, from its RFC 8032 encoding. */
ec::Point
orderTwoPoint()
{
    uint8_t enc[ec::kPointBytes];
    std::memset(enc, 0xff, sizeof(enc));
    enc[0] = 0xec;  // y = p - 1
    enc[31] = 0x7f; // x = 0, sign bit clear
    ec::Point p;
    EXPECT_TRUE(ec::Point::fromBytes(enc, p));
    EXPECT_FALSE(p.isIdentity());
    EXPECT_TRUE(p.dbl().isIdentity());
    return p;
}

TEST(Curve25519, TableDrivenMultipliesMatchDoubleAndAdd)
{
    Prg rng(0xa);
    const ec::Point a =
        referenceMul(ec::randomScalar(rng), ec::Point::base());
    const ec::Point bases[] = {ec::Point::base(), a, ec::Point(),
                               orderTwoPoint()};
    const char *names[] = {"B", "random A", "identity", "order 2"};
    const std::vector<ec::Scalar> ks = differentialScalars();
    for (size_t b = 0; b < 4; ++b) {
        const ec::Comb built(bases[b]);
        const ec::Comb &comb = b == 0 ? ec::Comb::base() : built;
        for (size_t i = 0; i < ks.size(); ++i) {
            // Reference, ladder, comb, compressed as one batch: each
            // must encode like the reference and like its own toBytes.
            const ec::Point got[3] = {referenceMul(ks[i], bases[b]),
                                      ec::Point::mul(ks[i], bases[b]),
                                      comb.mul(ks[i])};
            uint8_t batch[3 * ec::kPointBytes];
            ec::Point::batchToBytes(got, 3, batch);
            for (size_t j = 0; j < 3; ++j) {
                uint8_t one[ec::kPointBytes];
                got[j].toBytes(one);
                ASSERT_EQ(std::memcmp(one, batch, ec::kPointBytes), 0)
                    << names[b] << " scalar " << i << " result " << j;
                ASSERT_EQ(std::memcmp(one, batch + j * ec::kPointBytes,
                                      ec::kPointBytes),
                          0)
                    << names[b] << " scalar " << i << " result " << j;
            }
        }
    }
}

TEST(Curve25519, BatchToBytesMatchesToBytesPerPoint)
{
    Prg rng(0xb);
    std::vector<ec::Point> points = {ec::Point(), orderTwoPoint()};
    for (int i = 0; i < 30; ++i)
        points.push_back(ec::Point::mul(ec::randomScalar(rng),
                                        ec::Point::base())
                             .add(points[i % 2]));
    std::vector<uint8_t> batch(points.size() * ec::kPointBytes);
    ec::Point::batchToBytes(points.data(), points.size(), batch.data());
    for (size_t i = 0; i < points.size(); ++i) {
        uint8_t one[ec::kPointBytes];
        points[i].toBytes(one);
        EXPECT_EQ(std::memcmp(one, &batch[i * ec::kPointBytes],
                              ec::kPointBytes),
                  0)
            << "point " << i;
    }
    ec::Point::batchToBytes(nullptr, 0, nullptr); // an empty batch
}

TEST(Curve25519, CmovTakesTheOtherPointOnlyWhenSet)
{
    const ec::Point b = ec::Point::base();
    ec::Point p;
    p.cmov(b, false);
    EXPECT_TRUE(p.isIdentity());
    p.cmov(b, true);
    EXPECT_TRUE(p.equals(b));
}

TEST(Curve25519, RejectsNonCurveEncodings)
{
    // y = 2 gives a non-square x^2 candidate on this curve.
    uint8_t bad[ec::kPointBytes] = {2};
    ec::Point p;
    EXPECT_FALSE(ec::Point::fromBytes(bad, p));
}

// ---------------------------------------------------------------------------
// Bit-matrix transpose (the OT-extension pivot)
// ---------------------------------------------------------------------------

TEST(BitMatrix, Transpose64MatchesNaive)
{
    Prg rng(41);
    uint64_t m[64], orig[64];
    for (auto &w : m)
        w = rng.nextU64();
    std::memcpy(orig, m, sizeof(m));
    transpose64(m);
    for (int r = 0; r < 64; ++r)
        for (int c = 0; c < 64; ++c)
            ASSERT_EQ((m[r] >> c) & 1, (orig[c] >> r) & 1)
                << "r=" << r << " c=" << c;
}

TEST(BitMatrix, Transpose128BlockMatchesNaive)
{
    // Two blocks with a deliberately non-contiguous column stride.
    constexpr size_t kBlocks = 2;
    constexpr size_t kStride = kBlocks * kLabelBytes + 3;
    Prg rng(42);
    std::vector<uint8_t> cols(128 * kStride);
    rng.nextBytes(cols.data(), cols.size());

    // The dispatched path (SSE2 on x86 builds), then the portable
    // butterflies.
    for (const auto transpose :
         {&transpose128Block, &transpose128BlockPortable}) {
        for (size_t b = 0; b < kBlocks; ++b) {
            Label rows[128];
            transpose(cols.data() + b * kLabelBytes, kStride, rows);
            for (int r = 0; r < 128; ++r) {
                for (int c = 0; c < 128; ++c) {
                    const size_t bit = b * 128 + r;
                    const uint8_t byte =
                        cols[size_t(c) * kStride + bit / 8];
                    const int expected = (byte >> (bit % 8)) & 1;
                    const uint64_t word = c < 64 ? rows[r].lo : rows[r].hi;
                    ASSERT_EQ((word >> (c % 64)) & 1, uint64_t(expected))
                        << "b=" << b << " r=" << r << " c=" << c;
                }
            }
        }
    }
}

} // namespace
} // namespace haac
