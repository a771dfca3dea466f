#include "Otp.hh"

#include <algorithm>

#include "common/Logging.hh"

namespace sboram {

SB_HOT void
OtpCodec::tagGroup(const CipherView *cts, std::size_t n,
                   std::uint64_t *tags) const
{
    SB_ASSERT(n <= kTagGroup, "tag group of %zu slots", n);
    const std::uint64_t words = n > 0 ? cts[0].words : 0;
    std::uint64_t acc[kTagGroup];
    for (std::size_t j = 0; j < n; ++j) {
        SB_ASSERT(cts[j].words == words, "ragged tag group");
        acc[j] = prf64(_key, *cts[j].nonce, 0x7461675fULL);
    }
    // Lane-major: the inner loop's links are independent of each
    // other, so their multiply chains overlap in the pipeline.
    for (std::uint64_t i = 0; i < words; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            acc[j] = prf64(_key, acc[j] ^ cts[j].lanes[i], i + 1);
    }
    for (std::size_t j = 0; j < n; ++j)
        tags[j] = acc[j];
}

SB_HOT void
OtpCodec::verifyBatch(const CipherView *cts, std::size_t count,
                      std::uint8_t *ok) const
{
    std::uint64_t tags[kTagGroup];
    for (std::size_t s = 0; s < count; s += kTagGroup) {
        const std::size_t n = std::min(kTagGroup, count - s);
        tagGroup(cts + s, n, tags);
        for (std::size_t j = 0; j < n; ++j)
            ok[s + j] = *cts[s + j].tag == tags[j] ? 1 : 0;
    }
}

SB_HOT void
OtpCodec::encryptBatch(const std::uint64_t *const *plains,
                       const CipherRef *outs, std::size_t count,
                       std::uint64_t words, std::uint64_t *ksScratch)
{
    // Pass 1: nonce assignment, in array order.  This is the exact
    // sequence count successive encryptRef calls would draw, which
    // keeps the ciphertext bitstream — and everything downstream of
    // it (fault schedules, snapshot images) — unchanged.
    for (std::size_t s = 0; s < count; ++s)
        *outs[s].nonce = ++_nonceCounter;

    // Pass 2: the whole path's keystream in one sweep.  Each slot's
    // per-nonce PRF state is hoisted once; the inner loop is three
    // mixes per lane with no per-slot setup beyond that.
    for (std::size_t s = 0; s < count; ++s)
        PrfStream(_key, *outs[s].nonce)
            .fill(ksScratch + s * words, words);

    // Pass 3: XOR the pads in, then tag the fresh ciphertext lanes a
    // group at a time through the tag kernel.
    CipherView group[kTagGroup];
    std::uint64_t tags[kTagGroup];
    for (std::size_t s = 0; s < count; s += kTagGroup) {
        const std::size_t n = std::min(kTagGroup, count - s);
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t *plain = plains[s + j];
            const std::uint64_t *ks = ksScratch + (s + j) * words;
            const CipherRef &out = outs[s + j];
            SB_ASSERT(out.words == words, "slot of %llu lanes in a "
                      "%llu-lane batch",
                      static_cast<unsigned long long>(out.words),
                      static_cast<unsigned long long>(words));
            for (std::uint64_t i = 0; i < words; ++i)
                out.lanes[i] = plain[i] ^ ks[i];
            group[j] = out;
        }
        tagGroup(group, n, tags);
        for (std::size_t j = 0; j < n; ++j)
            *outs[s + j].tag = tags[j];
    }
}

} // namespace sboram
