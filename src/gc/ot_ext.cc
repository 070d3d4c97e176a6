#include "gc/ot_ext.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/bitmatrix.h"
#include "crypto/ct.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"

namespace haac {

namespace {

/**
 * Correlation-robust hash tweak base for extended OT j; the base-OT
 * domain uses kBaseOtTweak (base_ot.cc) and garbling tweaks are dense
 * near zero, so the three spaces cannot collide.
 */
constexpr uint64_t kOtExtTweak = 0x4f5445585f000000ull; // "OTEX_"

/** Tweak keying the Fiat-Shamir digest of the uplinked columns. */
constexpr uint64_t kOtKosTweak = 0x4f544b4f53000000ull; // "OTKOS"

/**
 * OTs masked (sender) or unmasked (receiver) per slice: the scratch is
 * this fixed size, whatever the batch.
 */
constexpr size_t kOtSlice = 256;

size_t
blocksFor(size_t count)
{
    return (count + kOtExtColumns - 1) / kOtExtColumns;
}

/**
 * Digest the uplinked column matrix into the chi-PRG key (Fiat-Shamir:
 * both sides derive the KOS15 challenge from the transcript, so no
 * extra round trip). Merkle-Damgard over the Davies-Meyer compression
 * the rekeyed hasher already is.
 */
Label
foldColumns(const std::vector<uint8_t> &u)
{
    const RekeyedHasher h(kOtKosTweak);
    Label acc;
    for (size_t off = 0; off < u.size(); off += kLabelBytes)
        acc = h(acc ^ Label::fromBytes(u.data() + off));
    return acc;
}

/** Bit @p i of the column-choice vector s, as a mask. */
uint64_t
columnMask(const Label &s, size_t i)
{
    return ctMask((i < 64 ? s.lo >> i : s.hi >> (i - 64)) & 1);
}

/** Pivot the column-major matrix @p cols into one Label per row. */
void
transposeColumns(const std::vector<uint8_t> &cols, size_t ext_blocks,
                 std::vector<Label> &rows)
{
    const size_t col_bytes = ext_blocks * kLabelBytes;
    rows.resize(ext_blocks * kOtExtColumns);
    for (size_t b = 0; b < ext_blocks; ++b)
        transpose128Block(cols.data() + b * kLabelBytes, col_bytes,
                          &rows[b * kOtExtColumns]);
}

/** The KOS15 sums over every extended row. */
struct KosSums
{
    Label x; ///< sum of chi_j over set choice bits (receiver only)
    Label t; ///< sum of chi_j * rows_j in GF(2^128)
};

/**
 * Draw chi_j from the digest of @p u and sum over @p rows, one block of
 * challenges at a time; the receiver passes its choice column @p r.
 * chi_j is the j-th chi-PRG block with its 64-bit halves swapped: the
 * wire convention OtExtKat.UplinkDigestIsPinned holds both parties to.
 */
KosSums
kosSums(const std::vector<uint8_t> &u, const std::vector<Label> &rows,
        const uint8_t *r)
{
    Prg chi(foldColumns(u));
    KosSums sums;
    Label c[kOtExtColumns];
    for (size_t b = 0; b < rows.size(); b += kOtExtColumns) {
        for (size_t i = 0; i < kOtExtColumns; ++i) {
            const Label block = chi.nextLabel();
            c[i] = Label(block.hi, block.lo);
        }
        if (r != nullptr)
            for (size_t i = 0; i < kOtExtColumns; ++i) {
                const size_t j = b + i;
                sums.x = ctSelect(ctMask((r[j / 8] >> (j % 8)) & 1),
                                  sums.x, sums.x ^ c[i]);
            }
        sums.t ^= gf128InnerProduct(c, &rows[b], kOtExtColumns);
    }
    return sums;
}

} // namespace

Label
otRandomKey()
{
    return Label(randomSeed(), randomSeed());
}

OtExtSender::OtExtSender(ByteChannel &out, ByteChannel &in,
                         const Label &rng_key)
    : out_(&out), in_(&in), rng_(rng_key)
{
}

OtExtSender::OtExtSender(ByteChannel &out, ByteChannel &in,
                         uint64_t rng_seed)
    : out_(&out), in_(&in), rng_(rng_seed)
{
}

void
OtExtSender::setup()
{
    std::vector<bool> s_bits(kOtExtColumns);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        const bool bit = rng_.nextBit();
        s_bits[i] = bit;
        (i < 64 ? s_.lo : s_.hi) |= uint64_t(bit) << (i % 64);
    }

    // IKNP role reversal: receive the base OTs with choice vector s.
    BaseOtReceiver base(*out_, *in_, rng_);
    base.run(s_bits);
    columnPrg_.reserve(kOtExtColumns);
    for (const Label &key : base.keys())
        columnPrg_.emplace_back(key);
    ready_ = true;
}

void
OtExtSender::send(const std::vector<Label> &m0,
                  const std::vector<Label> &m1)
{
    if (!ready_)
        throw std::logic_error("OtExtSender: send() before setup()");
    if (m0.size() != m1.size())
        throw std::invalid_argument(
            "OtExtSender: mismatched message vectors");
    const size_t m = m0.size();
    if (m == 0)
        return;

    // One extra all-random block of OTs per batch: the KOS15 proof
    // reveals a random linear combination of the choice bits, and the
    // padding rows statistically mask the real ones.
    const size_t ext_blocks = blocksFor(m) + 1;
    const size_t col_bytes = ext_blocks * kLabelBytes;

    // Receiver's masked columns, then this side's view
    // q_i = PRG(k_{s_i}) ^ s_i*u_i.
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    in_->recvBytes(u.data(), u.size());
    std::vector<uint8_t> q(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *qi = q.data() + i * col_bytes;
        columnPrg_[i].nextBytes(qi, col_bytes);
        ctXorBytes(columnMask(s_, i), qi, u.data() + i * col_bytes,
                   col_bytes);
    }
    std::vector<Label> rows;
    transposeColumns(q, ext_blocks, rows);

    // KOS15 consistency check: a receiver that used a different r in
    // some column (the selective-failure probe IKNP permits) cannot
    // produce (x, t~) with t~ == q~ ^ x*s except with probability
    // 2^-128, because q_j = t_j ^ r_j*s only when r was global. q~
    // needs nothing from the proof, so it is summed while the receiver
    // builds the proof; only the compare waits for it.
    const Label q_tilde = kosSums(u, rows, nullptr).t;
    uint8_t proof[2 * kLabelBytes];
    in_->recvBytes(proof, sizeof proof);
    const Label x = Label::fromBytes(proof);
    const Label t_tilde = Label::fromBytes(proof + kLabelBytes);
    if (t_tilde != (q_tilde ^ gf128Mul(x, s_)))
        throw OtError(
            "OtExtSender: KOS15 consistency check failed — receiver "
            "used inconsistent choice bits across columns");

    // q_j = t_j ^ r_j*s, so H(j, q_j) masks m0 toward choice 0 and
    // H(j, q_j ^ s) masks m1 toward choice 1.
    const uint64_t tweak = kOtExtTweak + tweakBase_;
    Label h[2 * kOtSlice];
    for (size_t j0 = 0; j0 < m; j0 += kOtSlice) {
        const size_t n = std::min(kOtSlice, m - j0);
        for (size_t k = 0; k < n; ++k) {
            h[2 * k] = rows[j0 + k];
            h[2 * k + 1] = rows[j0 + k] ^ s_;
        }
        hashRekeyedBatch(tweak + j0, h, n, 2, h);
        for (size_t k = 0; k < n; ++k) {
            out_->sendLabel(m0[j0 + k] ^ h[2 * k]);
            out_->sendLabel(m1[j0 + k] ^ h[2 * k + 1]);
        }
    }
    tweakBase_ += ext_blocks * kOtExtColumns;
    out_->flush();
}

OtExtReceiver::OtExtReceiver(ByteChannel &out, ByteChannel &in,
                             const Label &rng_key)
    : out_(&out), in_(&in), rng_(rng_key), base_(out, in, rng_)
{
}

OtExtReceiver::OtExtReceiver(ByteChannel &out, ByteChannel &in,
                             uint64_t rng_seed)
    : out_(&out), in_(&in), rng_(rng_seed), base_(out, in, rng_)
{
}

void
OtExtReceiver::start()
{
    base_.start();
}

void
OtExtReceiver::setup()
{
    base_.finish(kOtExtColumns);
    columnPrg0_.reserve(kOtExtColumns);
    columnPrg1_.reserve(kOtExtColumns);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        columnPrg0_.emplace_back(base_.keys0()[i]);
        columnPrg1_.emplace_back(base_.keys1()[i]);
    }
    ready_ = true;
}

void
OtExtReceiver::sendChoices(const std::vector<bool> &choices)
{
    if (!ready_)
        throw std::logic_error(
            "OtExtReceiver: sendChoices() before setup()");
    if (batchPending_)
        throw std::logic_error(
            "OtExtReceiver: previous batch not yet received");
    choices_ = choices;
    const size_t m = choices.size();
    if (m == 0)
        return;

    // One extra all-random block (see send()): its rows enter the
    // KOS15 proof but never carry labels. Block-boundary padding of
    // the real blocks stays random too (those pad OTs are unused).
    const size_t ext_blocks = blocksFor(m) + 1;
    const size_t col_bytes = ext_blocks * kLabelBytes;

    // Choice bits as a column; everything beyond bit m is random.
    std::vector<uint8_t> r(col_bytes);
    rng_.nextBytes(r.data(), r.size());
    for (size_t j = 0; j < m; ++j) {
        const uint8_t bit = uint8_t(1) << (j % 8);
        r[j / 8] = uint8_t((r[j / 8] & ~bit) |
                           (bit & uint8_t(ctMask(choices[j]))));
    }

    std::vector<uint8_t> t(kOtExtColumns * col_bytes);
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *ti = t.data() + i * col_bytes;
        uint8_t *ui = u.data() + i * col_bytes;
        columnPrg0_[i].nextBytes(ti, col_bytes);
        columnPrg1_[i].nextBytes(ui, col_bytes);
        for (size_t k = 0; k < col_bytes; ++k)
            ui[k] ^= ti[k] ^ r[k];
    }
    out_->sendBytes(u.data(), u.size());
    transposeColumns(t, ext_blocks, rows_);

    // KOS15 proof: x = sum of chi_j over set choice bits, and
    // t~ = sum of chi_j * t_j in GF(2^128), over every extended row.
    const KosSums sums = kosSums(u, rows_, r.data());
    uint8_t proof[2 * kLabelBytes];
    sums.x.toBytes(proof);
    sums.t.toBytes(proof + kLabelBytes);
    out_->sendBytes(proof, sizeof proof);
    out_->flush();
    batchPending_ = true;
}

std::vector<Label>
OtExtReceiver::receiveLabels()
{
    if (!ready_)
        throw std::logic_error(
            "OtExtReceiver: receiveLabels() before setup()");
    if (!batchPending_) {
        if (choices_.empty())
            return {}; // an empty batch legitimately has no labels
        throw std::logic_error(
            "OtExtReceiver: receiveLabels() without sendChoices()");
    }
    // H(j, t_j) needs no sender bytes: hash the rows in place, while
    // the sender checks the proof and masks, then only unmask.
    const size_t m = choices_.size();
    hashRekeyedBatch(kOtExtTweak + tweakBase_, rows_.data(), m, 1,
                     rows_.data());
    std::vector<Label> labels(m);
    constexpr size_t kPairBytes = 2 * kLabelBytes;
    uint8_t pairs[kOtSlice * kPairBytes];
    for (size_t j0 = 0; j0 < m; j0 += kOtSlice) {
        const size_t n = std::min(kOtSlice, m - j0);
        in_->recvBytes(pairs, n * kPairBytes);
        for (size_t k = 0; k < n; ++k) {
            const uint8_t *pair = pairs + k * kPairBytes;
            labels[j0 + k] =
                ctSelect(ctMask(choices_[j0 + k]), Label::fromBytes(pair),
                         Label::fromBytes(pair + kLabelBytes)) ^
                rows_[j0 + k];
        }
    }
    tweakBase_ += (blocksFor(m) + 1) * kOtExtColumns;
    batchPending_ = false;
    return labels;
}

} // namespace haac
