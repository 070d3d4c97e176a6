/**
 * @file
 * AES-128 (FIPS-197), encryption only (GC never decrypts AES).
 *
 * HAAC's Half-Gate units hash labels with AES using *re-keying*: every
 * hash uses a fresh key derived from the gate index, so the 176-byte key
 * expansion runs per hash (Fig. 2 of the paper). This module exposes the
 * key schedule separately from block encryption so both the re-keying
 * and fixed-key constructions (and the 27.5% cost ablation between them)
 * can be expressed.
 *
 * On an x86 CPU with AES-NI and SSSE3 both the key schedule
 * (aesenclast + pshufb) and block encryption run on the AES unit,
 * selected once per process from CPUID. The byte-oriented FIPS-197
 * code is the fallback for other CPUs and non-x86 builds;
 * aes128KeySchedulePortable() keeps its schedule callable so tests can
 * diff the two.
 */
#ifndef HAAC_CRYPTO_AES128_H
#define HAAC_CRYPTO_AES128_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/label.h"

namespace haac {

/** Number of 16-byte round keys for AES-128 (the 176-byte schedule). */
inline constexpr int kAesRounds = 10;
inline constexpr size_t kAesExpandedKeyBytes = 16 * (kAesRounds + 1);

/**
 * Independent blocks Aes128::encryptBlocks() keeps in the AES pipeline
 * at once: enough to cover aesenc's latency on current x86 cores.
 */
inline constexpr size_t kAesBlocksInFlight = 8;

/** The key schedule's round constants, round 1 first (FIPS-197). */
inline constexpr uint8_t kAesRcon[kAesRounds] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

/** The FIPS-197 key expansion in portable byte-oriented code. */
std::array<uint8_t, kAesExpandedKeyBytes>
aes128KeySchedulePortable(const uint8_t key[16]);

/**
 * An expanded AES-128 key schedule.
 *
 * Construction runs the key expansion; this is the unit of work the
 * paper's "key expand" boxes represent.
 */
class Aes128
{
  public:
    /** Expand a 16-byte key. */
    explicit Aes128(const uint8_t key[16]);

    /** Expand a key held in a Label (little-endian serialization). */
    explicit Aes128(const Label &key);

    /** Encrypt one 16-byte block in place semantics: out may alias in. */
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /** Encrypt a Label-typed block. */
    Label encryptBlock(const Label &in) const;

    /**
     * Encrypt @p n independent blocks, up to kAesBlocksInFlight at a
     * time through the AES pipeline; @p out may alias @p in.
     */
    void encryptBlocks(const Label *in, Label *out, size_t n) const;

    /** Raw access to the 176-byte schedule (for tests). */
    const std::array<uint8_t, kAesExpandedKeyBytes> &
    roundKeys() const
    {
        return roundKeys_;
    }

  private:
    std::array<uint8_t, kAesExpandedKeyBytes> roundKeys_;
};

} // namespace haac

#endif // HAAC_CRYPTO_AES128_H
