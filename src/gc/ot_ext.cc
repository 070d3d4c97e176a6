#include "gc/ot_ext.h"

#include <stdexcept>

#include "crypto/bitmatrix.h"
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

bool
columnChoiceBit(const Label &s, size_t i)
{
    return ((i < 64 ? s.lo >> i : s.hi >> (i - 64)) & 1) != 0;
}

void
xorBytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
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
        if (bit) {
            if (i < 64)
                s_.lo |= uint64_t(1) << i;
            else
                s_.hi |= uint64_t(1) << (i - 64);
        }
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

    // Receiver's masked columns, then this side's view q_i.
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    in_->recvBytes(u.data(), u.size());
    std::vector<uint8_t> q(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *qi = q.data() + i * col_bytes;
        columnPrg_[i].nextBytes(qi, col_bytes);
        if (columnChoiceBit(s_, i))
            xorBytes(qi, u.data() + i * col_bytes, col_bytes);
    }

    std::vector<Label> rows(ext_blocks * kOtExtColumns);
    for (size_t b = 0; b < ext_blocks; ++b)
        transpose128Block(q.data() + b * kLabelBytes, col_bytes,
                          &rows[b * kOtExtColumns]);

    // KOS15 consistency check: a receiver that used a different r in
    // some column (the selective-failure probe IKNP permits) cannot
    // produce (x, t~) with t~ == q~ ^ x*s except with probability
    // 2^-128, because q_j = t_j ^ r_j*s only when r was global.
    uint8_t proof[2 * kLabelBytes];
    in_->recvBytes(proof, sizeof proof);
    const Label x = Label::fromBytes(proof);
    const Label t_tilde = Label::fromBytes(proof + kLabelBytes);
    Prg chi(foldColumns(u));
    Label q_tilde;
    for (size_t j = 0; j < ext_blocks * kOtExtColumns; ++j) {
        const Label chi_j(chi.nextU64(), chi.nextU64());
        q_tilde ^= gf128Mul(chi_j, rows[j]);
    }
    if (t_tilde != (q_tilde ^ gf128Mul(x, s_)))
        throw OtError(
            "OtExtSender: KOS15 consistency check failed — receiver "
            "used inconsistent choice bits across columns");

    // q_j = t_j ^ r_j*s, so H(j, q_j) masks m0 toward choice 0 and
    // H(j, q_j ^ s) masks m1 toward choice 1.
    for (size_t j = 0; j < m; ++j) {
        Label h[2] = {rows[j], rows[j] ^ s_};
        hashRekeyedFused(kOtExtTweak + tweakBase_ + j, h, 2, 0, h);
        out_->sendLabel(m0[j] ^ h[0]);
        out_->sendLabel(m1[j] ^ h[1]);
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
        if (choices[j])
            r[j / 8] |= bit;
        else
            r[j / 8] &= uint8_t(~bit);
    }

    std::vector<uint8_t> t(kOtExtColumns * col_bytes);
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *ti = t.data() + i * col_bytes;
        uint8_t *ui = u.data() + i * col_bytes;
        columnPrg0_[i].nextBytes(ti, col_bytes);
        columnPrg1_[i].nextBytes(ui, col_bytes);
        xorBytes(ui, ti, col_bytes);
        xorBytes(ui, r.data(), col_bytes);
    }
    out_->sendBytes(u.data(), u.size());

    rows_.assign(ext_blocks * kOtExtColumns, Label());
    for (size_t b = 0; b < ext_blocks; ++b)
        transpose128Block(t.data() + b * kLabelBytes, col_bytes,
                          &rows_[b * kOtExtColumns]);

    // KOS15 proof: x = sum of chi_j over set choice bits, and
    // t~ = sum of chi_j * t_j in GF(2^128), over every extended row.
    Prg chi(foldColumns(u));
    Label x, t_tilde;
    for (size_t j = 0; j < ext_blocks * kOtExtColumns; ++j) {
        const Label chi_j(chi.nextU64(), chi.nextU64());
        if ((r[j / 8] >> (j % 8)) & 1)
            x ^= chi_j;
        t_tilde ^= gf128Mul(chi_j, rows_[j]);
    }
    uint8_t proof[2 * kLabelBytes];
    x.toBytes(proof);
    t_tilde.toBytes(proof + kLabelBytes);
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
    const size_t m = choices_.size();
    std::vector<Label> labels(m);
    for (size_t j = 0; j < m; ++j) {
        const Label y0 = in_->recvLabel();
        const Label y1 = in_->recvLabel();
        Label h;
        hashRekeyedFused(kOtExtTweak + tweakBase_ + j, &rows_[j], 1, 0, &h);
        labels[j] = (choices_[j] ? y1 : y0) ^ h;
    }
    tweakBase_ += (blocksFor(m) + 1) * kOtExtColumns;
    batchPending_ = false;
    return labels;
}

} // namespace haac
