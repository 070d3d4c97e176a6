/**
 * @file
 * Deterministic pseudorandom generator for label generation.
 *
 * The Garbler draws the global offset R and all fresh wire labels from a
 * PRG. We use AES-128 in counter mode keyed by a seed, which keeps the
 * whole pipeline deterministic (same seed => same garbling), a property
 * the test suite leans on heavily.
 */
#ifndef HAAC_CRYPTO_PRG_H
#define HAAC_CRYPTO_PRG_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {

/**
 * SplitMix64 finalizer: a cheap bijective mix for deriving unrelated
 * seeds from related ones (never maps distinct inputs together, so no
 * derived-seed collision can collapse two streams).
 */
uint64_t splitmix64(uint64_t x);

/**
 * A fresh, non-deterministic 64-bit seed from the OS entropy source.
 *
 * Pooled and inline-served garblings draw their seeds here, so no two
 * sessions share a garbling and no peer can reconstruct one from other
 * protocol values; deterministic test paths keep passing explicit
 * seeds instead.
 */
uint64_t randomSeed();

/**
 * The one garbling-seed rule, shared by GcServer sessions, chained
 * components and the ready pools. Base 0 draws every seed from the OS
 * entropy source (randomSeed()) — the only safe setting when a real
 * peer connects. A nonzero base hands out base, base + 1, ... in draw
 * order, for reproducible tests, and never the same seed twice.
 * Thread-safe.
 */
class SeedSequence
{
  public:
    explicit SeedSequence(uint64_t base = 0) : base_(base) {}

    /** The first of @p n fresh consecutive seeds. */
    uint64_t
    next(uint64_t n = 1)
    {
        return base_ != 0 ? base_ + offset_.fetch_add(n) : randomSeed();
    }

  private:
    const uint64_t base_;
    std::atomic<uint64_t> offset_{0};
};

/**
 * AES-CTR pseudorandom label stream: block k is AES_key(k || "HAAC_PRG").
 *
 * Blocks are encrypted kAesBlocksInFlight at a time through
 * Aes128::encryptBlocks() and handed out in counter order, so the
 * stream does not depend on how it is drawn: every draw takes whole
 * blocks (a partial nextBytes() tail discards the rest of its block),
 * and nextU64() halves a block, low word first.
 */
class Prg
{
  public:
    /** Seed the stream; two Prgs with equal seeds emit equal streams. */
    explicit Prg(uint64_t seed);

    /**
     * Key the stream with a full 128-bit key (the OT extension seeds
     * its column streams with base-OT output keys).
     */
    explicit Prg(const Label &key);

    /** Fill @p n bytes of pseudorandom output. */
    void nextBytes(uint8_t *out, size_t n);

    /** Next 128 pseudorandom bits. */
    Label
    nextLabel()
    {
        if (next_ == kAesBlocksInFlight)
            refill();
        return blocks_[next_++];
    }

    /** Next 64 pseudorandom bits. */
    uint64_t nextU64();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t nextRange(uint64_t bound);

    /** Uniform bit. */
    bool nextBit() { return (nextU64() & 1) != 0; }

  private:
    /** Encrypt the next kAesBlocksInFlight counters into blocks_. */
    void refill();

    Aes128 aes_;
    uint64_t counter_ = 0;              ///< next counter to encrypt
    Label blocks_[kAesBlocksInFlight];  ///< encrypted, drawn from next_
    size_t next_ = kAesBlocksInFlight;
    Label spare_;
    bool haveSpareHalf_ = false;
};

} // namespace haac

#endif // HAAC_CRYPTO_PRG_H
