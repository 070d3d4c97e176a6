#include "crypto/hash.h"

#include <stdexcept>

#include "crypto/aesni.h"

namespace haac {

Label
tweakKey(uint64_t tweak)
{
    // Domain-separate the key space from PRG counters.
    return Label(tweak, tweak ^ 0x4841414354574b00ull); // "HAACTWK"
}

Label
hashRekeyed(const Label &x, uint64_t tweak)
{
    Aes128 aes(tweakKey(tweak));
    return aes.encryptBlock(x) ^ x;
}

namespace {

#if defined(HAAC_USE_AESNI)
/**
 * N0 blocks under tweak t and N1 under t+1. Each key's round-r key is
 * expanded right before the round-r encryptions that use it, so the
 * key chains overlap the cipher rounds and no schedule is stored.
 */
template <int N0, int N1>
void
fusedAesni(uint64_t tweak, const Label *x, Label *out)
{
    constexpr int kBlocks = N0 + N1;
    __m128i k0 = aesni::load(tweakKey(tweak));
    __m128i k1 = k0;
    if constexpr (N1 != 0)
        k1 = aesni::load(tweakKey(tweak + 1));
    __m128i in[kBlocks], s[kBlocks];
    for (int i = 0; i < kBlocks; ++i) {
        in[i] = aesni::load(x[i]);
        s[i] = _mm_xor_si128(in[i], i < N0 ? k0 : k1);
    }
    for (int round = 1; round < kAesRounds; ++round) {
        k0 = aesni::nextRoundKey(k0, round);
        if constexpr (N1 != 0)
            k1 = aesni::nextRoundKey(k1, round);
        for (int i = 0; i < kBlocks; ++i)
            s[i] = _mm_aesenc_si128(s[i], i < N0 ? k0 : k1);
    }
    k0 = aesni::nextRoundKey(k0, kAesRounds);
    if constexpr (N1 != 0)
        k1 = aesni::nextRoundKey(k1, kAesRounds);
    for (int i = 0; i < kBlocks; ++i)
        out[i] = aesni::store(_mm_xor_si128(
            _mm_aesenclast_si128(s[i], i < N0 ? k0 : k1), in[i]));
}

/**
 * G tweaks of B blocks each (tweak + g for the g-th), all G key chains
 * expanded round by round beside their blocks.
 */
template <int B, int G>
void
groupAesni(uint64_t tweak, const Label *x, Label *out)
{
    __m128i k[G], s[G * B];
    for (int g = 0; g < G; ++g) {
        k[g] = aesni::load(tweakKey(tweak + uint64_t(g)));
        for (int i = 0; i < B; ++i)
            s[B * g + i] = _mm_xor_si128(aesni::load(x[B * g + i]), k[g]);
    }
    for (int round = 1; round < kAesRounds; ++round) {
        for (int g = 0; g < G; ++g) {
            k[g] = aesni::nextRoundKey(k[g], round);
            for (int i = 0; i < B; ++i)
                s[B * g + i] = _mm_aesenc_si128(s[B * g + i], k[g]);
        }
    }
    for (int g = 0; g < G; ++g) {
        k[g] = aesni::nextRoundKey(k[g], kAesRounds);
        for (int i = 0; i < B; ++i)
            out[B * g + i] = aesni::store(
                _mm_xor_si128(_mm_aesenclast_si128(s[B * g + i], k[g]),
                              aesni::load(x[B * g + i])));
    }
}

/** hashRekeyedBatch() for B blocks per tweak. */
template <int B>
void
batchAesni(uint64_t tweak, const Label *x, size_t count, Label *out)
{
    constexpr size_t kGroup = kAesBlocksInFlight / B;
    size_t g = 0;
    for (; g + kGroup <= count; g += kGroup)
        groupAesni<B, int(kGroup)>(tweak + g, x + B * g, out + B * g);
    for (; g < count; ++g)
        groupAesni<B, 1>(tweak + g, x + B * g, out + B * g);
}

using FusedFn = void (*)(uint64_t, const Label *, Label *);

/** Indexed [n0 - 1][n1]. */
constexpr FusedFn kFusedAesni[2][3] = {
    {&fusedAesni<1, 0>, &fusedAesni<1, 1>, &fusedAesni<1, 2>},
    {&fusedAesni<2, 0>, &fusedAesni<2, 1>, &fusedAesni<2, 2>},
};
#endif

/** The block shapes the fused hashes serve (see hash.h). */
void
checkShape(int n0, int n1)
{
    if (n0 < 1 || n0 > 2 || n1 < 0 || n1 > 2)
        throw std::invalid_argument("fused hash: unsupported block shape");
}

Label
fixedGlobalKey()
{
    return Label(0x7061706572484141ull, 0x4341534963613233ull);
}

/** sigma(x): swap-and-double linear orthomorphism (EMP-style). */
Label
sigma(const Label &x)
{
    return Label(x.hi ^ x.lo, x.hi);
}

} // namespace

void
hashRekeyedFused(uint64_t tweak, const Label *x, int n0, int n1,
                 Label *out)
{
    checkShape(n0, n1);
#if defined(HAAC_USE_AESNI)
    if (aesni::hasAes()) {
        kFusedAesni[n0 - 1][n1](tweak, x, out);
        return;
    }
#endif
    const RekeyedHasher h0(tweak);
    for (int i = 0; i < n0; ++i)
        out[i] = h0(x[i]);
    if (n1 == 0)
        return;
    const RekeyedHasher h1(tweak + 1);
    for (int i = n0; i < n0 + n1; ++i)
        out[i] = h1(x[i]);
}

void
hashRekeyedBatch(uint64_t tweak, const Label *x, size_t count,
                 int per_tweak, Label *out)
{
    if (per_tweak != 1 && per_tweak != 2)
        throw std::invalid_argument("batched hash: unsupported block shape");
#if defined(HAAC_USE_AESNI)
    if (aesni::hasAes()) {
        if (per_tweak == 1)
            batchAesni<1>(tweak, x, count, out);
        else
            batchAesni<2>(tweak, x, count, out);
        return;
    }
#endif
    for (size_t g = 0; g < count; ++g) {
        const RekeyedHasher h(tweak + g);
        for (int i = 0; i < per_tweak; ++i)
            out[per_tweak * g + i] = h(x[per_tweak * g + i]);
    }
}

FixedKeyHasher::FixedKeyHasher() : aes_(fixedGlobalKey()) {}

Label
FixedKeyHasher::operator()(const Label &x, uint64_t tweak) const
{
    Label t = sigma(x) ^ Label(tweak, 0);
    return aes_.encryptBlock(t) ^ t;
}

void
FixedKeyHasher::operator()(uint64_t tweak, const Label *x, int n0, int n1,
                           Label *out) const
{
    checkShape(n0, n1);
    Label t[4];
    for (int i = 0; i < n0 + n1; ++i)
        t[i] = sigma(x[i]) ^ Label(tweak + (i < n0 ? 0 : 1), 0);
    aes_.encryptBlocks(t, out, size_t(n0 + n1));
    for (int i = 0; i < n0 + n1; ++i)
        out[i] ^= t[i];
}

} // namespace haac
