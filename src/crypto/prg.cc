#include "crypto/prg.h"

#include <cstring>
#include <random>

namespace haac {

namespace {

uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Label
seedToKey(uint64_t seed)
{
    // Spread the seed across the key with distinct mixing constants
    // (splitmix64 finalizer) so nearby seeds give unrelated keys.
    uint64_t lo = mix(seed + 0x9e3779b97f4a7c15ull);
    uint64_t hi = mix(seed + 0x7f4a7c15'9e3779b9ull);
    return Label(lo, hi);
}

} // namespace

uint64_t
splitmix64(uint64_t x)
{
    return mix(x + 0x9e3779b97f4a7c15ull);
}

uint64_t
randomSeed()
{
    std::random_device rd;
    return (uint64_t(rd()) << 32) ^ rd();
}

Prg::Prg(uint64_t seed) : aes_(seedToKey(seed)) {}

Prg::Prg(const Label &key) : aes_(key) {}

void
Prg::refill()
{
    Label ctr[kAesBlocksInFlight];
    for (size_t i = 0; i < kAesBlocksInFlight; ++i)
        ctr[i] = Label(counter_ + i, 0x484141435f505247ull); // "HAAC_PRG"
    counter_ += kAesBlocksInFlight;
    aes_.encryptBlocks(ctr, blocks_, kAesBlocksInFlight);
    next_ = 0;
}

void
Prg::nextBytes(uint8_t *out, size_t n)
{
    while (n >= kLabelBytes) {
        nextLabel().toBytes(out);
        out += kLabelBytes;
        n -= kLabelBytes;
    }
    if (n > 0) {
        uint8_t block[kLabelBytes];
        nextLabel().toBytes(block);
        std::memcpy(out, block, n);
    }
}

uint64_t
Prg::nextU64()
{
    if (haveSpareHalf_) {
        haveSpareHalf_ = false;
        return spare_.hi;
    }
    spare_ = nextLabel();
    haveSpareHalf_ = true;
    return spare_.lo;
}

uint64_t
Prg::nextRange(uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = bound * (~uint64_t(0) / bound);
    uint64_t v;
    do {
        v = nextU64();
    } while (v >= limit);
    return v % bound;
}

} // namespace haac
