/**
 * @file
 * The Half-Gate label hash H(x, j).
 *
 * HAAC uses the *re-keying* construction for security (Guo et al.,
 * CRYPTO'20): each hash call expands an AES key derived from the gate
 * tweak j (j = 2*gate_index or 2*gate_index+1) and computes a
 * Matyas-Meyer-Oseas compression, H(x, j) = AES_{k(j)}(x) ^ x. An AND
 * gate therefore costs the Garbler two key expansions and four AES
 * block encryptions, exactly the datapath in Fig. 2 of the paper.
 * hashRekeyedFused() is that datapath in software: on AES-NI hosts
 * both tweak keys are expanded round by round alongside the block
 * encryptions, so no schedule is ever stored.
 *
 * The cheaper but less secure *fixed-key* construction (one global key,
 * tweak folded into the input) is provided only to reproduce the
 * paper's measured 27.5% re-keying overhead.
 */
#ifndef HAAC_CRYPTO_HASH_H
#define HAAC_CRYPTO_HASH_H

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {

/** Derive the AES key for tweak j (both halves carry j, domain-tagged). */
Label tweakKey(uint64_t tweak);

/**
 * Re-keyed Half-Gate hash: expand k(j), then MMO-compress x.
 *
 * This is the per-block reference form; the protocols hash through
 * hashRekeyedFused(), which tests diff against it.
 */
Label hashRekeyed(const Label &x, uint64_t tweak);

/**
 * The fused re-keyed hash (Fig. 2's GE datapath): out[i] = H(x[i], t)
 * for i < n0 and H(x[i], t + 1) for n0 <= i < n0 + n1, with n0 in
 * {1, 2} and n1 in {0, 1, 2}. A garbled AND hashes 2 + 2 blocks, an
 * evaluated one 1 + 1, a chain link table 2 + 0 or 1 + 0; any other
 * shape throws std::invalid_argument. @p out may alias @p x.
 */
void hashRekeyedFused(uint64_t tweak, const Label *x, int n0, int n1,
                      Label *out);

/**
 * Re-keyed hashes under @p count consecutive tweaks, @p per_tweak
 * blocks each (1 or 2; anything else throws std::invalid_argument):
 * out[per_tweak * g + i] = H(x[per_tweak * g + i], tweak + g). The
 * OT extension's masks are this shape (one tweak per OT). On AES-NI
 * hosts kAesBlocksInFlight blocks go through the rounds together, their
 * keys expanded round by round beside them as in hashRekeyedFused().
 * @p out may alias @p x.
 */
void hashRekeyedBatch(uint64_t tweak, const Label *x, size_t count,
                      int per_tweak, Label *out);

/**
 * One stored tweak-key schedule, for a long chain of hashes under one
 * tweak (a Merkle-Damgard fold).
 */
class RekeyedHasher
{
  public:
    explicit RekeyedHasher(uint64_t tweak) : aes_(tweakKey(tweak)) {}

    Label
    operator()(const Label &x) const
    {
        return aes_.encryptBlock(x) ^ x;
    }

  private:
    Aes128 aes_;
};

/**
 * Fixed-key hash: H(x, j) = AES_K(sigma(x) ^ j) ^ sigma(x) ^ j, where
 * sigma doubles the label halves to break XOR-linearity. Ablation only.
 */
class FixedKeyHasher
{
  public:
    FixedKeyHasher();

    Label operator()(const Label &x, uint64_t tweak) const;

    /**
     * The same block shapes as hashRekeyedFused(), through the AES
     * pipeline together, so the re-keyed/fixed-key ablation compares
     * like with like.
     */
    void operator()(uint64_t tweak, const Label *x, int n0, int n1,
                    Label *out) const;

  private:
    Aes128 aes_;
};

} // namespace haac

#endif // HAAC_CRYPTO_HASH_H
