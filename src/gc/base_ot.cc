#include "gc/base_ot.h"

#include "crypto/hash.h"

namespace haac {

namespace {

/**
 * Hash a compressed point into a 128-bit key, domain-separated per OT
 * index: two re-keyed MMO compressions (one per point half) under
 * distinct tweaks, well clear of the garbling tweak space.
 */
constexpr uint64_t kBaseOtTweak = 0x424f545f00000000ull; // "BOT_"

Label
hashPoint(const uint8_t bytes[ec::kPointBytes], uint64_t index)
{
    Label halves[2] = {Label::fromBytes(bytes),
                       Label::fromBytes(bytes + kLabelBytes)};
    hashRekeyedFused(kBaseOtTweak + 2 * index, halves, 1, 1, halves);
    return halves[0] ^ halves[1];
}

ec::Point
recvPoint(ByteChannel &in, const char *what)
{
    uint8_t bytes[ec::kPointBytes];
    in.recvBytes(bytes, sizeof(bytes));
    ec::Point p;
    if (!ec::Point::fromBytes(bytes, p))
        throw OtError(std::string("base OT: invalid ") + what +
                      " (not a curve point)");
    return p;
}

} // namespace

BaseOtSender::BaseOtSender(ByteChannel &out, ByteChannel &in, Prg &rng)
    : out_(&out), in_(&in), rng_(&rng)
{
}

void
BaseOtSender::start()
{
    y_ = ec::randomScalar(*rng_);
    A_ = ec::Comb::base().mul(y_);
    uint8_t bytes[ec::kPointBytes];
    A_.toBytes(bytes);
    out_->sendBytes(bytes, sizeof(bytes));
    out_->flush();
}

void
BaseOtSender::finish(size_t count)
{
    // shared[2i] = y*R_i and shared[2i+1] = y*(R_i - A), compressed
    // in one batch.
    const ec::Point yA = ec::Point::mul(y_, A_);
    std::vector<ec::Point> shared(2 * count);
    for (size_t i = 0; i < count; ++i) {
        const ec::Point r = recvPoint(*in_, "blinded point");
        shared[2 * i] = ec::Point::mul(y_, r);
        shared[2 * i + 1] = shared[2 * i].sub(yA);
    }
    std::vector<uint8_t> bytes(shared.size() * ec::kPointBytes);
    ec::Point::batchToBytes(shared.data(), shared.size(), bytes.data());
    keys0_.resize(count);
    keys1_.resize(count);
    for (size_t i = 0; i < count; ++i) {
        keys0_[i] = hashPoint(&bytes[2 * i * ec::kPointBytes], i);
        keys1_[i] = hashPoint(&bytes[(2 * i + 1) * ec::kPointBytes], i);
    }
}

BaseOtReceiver::BaseOtReceiver(ByteChannel &out, ByteChannel &in,
                               Prg &rng)
    : out_(&out), in_(&in), rng_(&rng)
{
}

void
BaseOtReceiver::run(const std::vector<bool> &choices)
{
    const ec::Point a = recvPoint(*in_, "public key");
    const size_t count = choices.size();
    std::vector<ec::Scalar> xs(count);
    std::vector<ec::Point> points(count);
    std::vector<uint8_t> bytes(count * ec::kPointBytes);
    for (size_t i = 0; i < count; ++i) {
        xs[i] = ec::randomScalar(*rng_);
        points[i] = ec::Comb::base().mul(xs[i]);
        points[i].cmov(points[i].add(a), choices[i]); // R_i
    }
    ec::Point::batchToBytes(points.data(), count, bytes.data());
    // One sendBytes per point keeps the frame boundaries of any flush
    // threshold.
    for (size_t i = 0; i < count; ++i)
        out_->sendBytes(&bytes[i * ec::kPointBytes], ec::kPointBytes);
    out_->flush();

    // The chosen keys H(i, x_i*A), while the sender works on the R_i.
    const ec::Comb a_comb(a);
    for (size_t i = 0; i < count; ++i)
        points[i] = a_comb.mul(xs[i]);
    ec::Point::batchToBytes(points.data(), count, bytes.data());
    keys_.resize(count);
    for (size_t i = 0; i < count; ++i)
        keys_[i] = hashPoint(&bytes[i * ec::kPointBytes], i);
}

} // namespace haac
