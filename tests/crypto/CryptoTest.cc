#include <gtest/gtest.h>

#include <set>

#include "crypto/Otp.hh"
#include "crypto/Prf.hh"

using namespace sboram;

TEST(Prf, Deterministic)
{
    PrfKey key;
    EXPECT_EQ(prf64(key, 1, 2), prf64(key, 1, 2));
}

TEST(Prf, SensitiveToEveryInput)
{
    PrfKey k1;
    PrfKey k2{k1.lo + 1, k1.hi};
    EXPECT_NE(prf64(k1, 5, 7), prf64(k2, 5, 7));
    EXPECT_NE(prf64(k1, 5, 7), prf64(k1, 6, 7));
    EXPECT_NE(prf64(k1, 5, 7), prf64(k1, 5, 8));
}

TEST(Prf, AvalancheOnNonce)
{
    PrfKey key;
    int totalBits = 0;
    for (std::uint64_t n = 0; n < 256; ++n) {
        std::uint64_t diff =
            prf64(key, n, 0) ^ prf64(key, n + 1, 0);
        totalBits += __builtin_popcountll(diff);
    }
    // Expect ~32 flipped bits on average; allow broad tolerance.
    EXPECT_GT(totalBits, 256 * 24);
    EXPECT_LT(totalBits, 256 * 40);
}

TEST(Prf, OutputsLookDistinct)
{
    PrfKey key;
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(prf64(key, i, i % 8));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Prf, StreamMatchesDirectCalls)
{
    // PrfStream hoists the per-nonce state out of the lane loop; it
    // must stay bit-identical to prf64 — the keystream is a
    // determinism contract (checkpoint resume re-derives it).
    PrfKey key{0x1234, 0x5678};
    for (std::uint64_t nonce : {1ULL, 2ULL, 0xdeadULL, ~0ULL}) {
        PrfStream ks(key, nonce);
        for (std::uint64_t lane = 0; lane < 64; ++lane)
            ASSERT_EQ(ks.lane(lane), prf64(key, nonce, lane))
                << "nonce=" << nonce << " lane=" << lane;
    }
}

TEST(Prf, StreamFillMatchesLaneByLane)
{
    PrfKey key;
    PrfStream ks(key, 42);
    std::uint64_t buf[16];
    ks.fill(buf, 16);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(buf[i], ks.lane(i));
}

TEST(Otp, RoundTrip)
{
    OtpCodec codec;
    std::vector<std::uint64_t> plain{1, 2, 3, 0xdeadbeef};
    CipherText ct = codec.encrypt(plain);
    EXPECT_EQ(codec.decrypt(ct), plain);
}

TEST(Otp, FreshNoncePerEncryption)
{
    OtpCodec codec;
    std::vector<std::uint64_t> plain{42, 42, 42, 42};
    CipherText a = codec.encrypt(plain);
    CipherText b = codec.encrypt(plain);
    EXPECT_NE(a.nonce, b.nonce);
    // Same plaintext, different ciphertext — probabilistic
    // encryption is what makes shadow blocks indistinguishable from
    // dummies (paper Section IV-A).
    EXPECT_NE(a.lanes, b.lanes);
}

TEST(Otp, CiphertextHidesPlaintext)
{
    OtpCodec codec;
    std::vector<std::uint64_t> zeros(8, 0);
    CipherText ct = codec.encrypt(zeros);
    int zeroLanes = 0;
    for (std::uint64_t lane : ct.lanes)
        if (lane == 0)
            ++zeroLanes;
    EXPECT_EQ(zeroLanes, 0);
}

TEST(Otp, EmptyPayload)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({});
    EXPECT_TRUE(codec.decrypt(ct).empty());
}

namespace {

/** Plaintext lanes that differ per slot, per lane and per call. */
std::vector<std::vector<std::uint64_t>>
variedPlains(std::size_t slots, std::uint64_t words, std::uint64_t salt)
{
    std::vector<std::vector<std::uint64_t>> plains(slots);
    for (std::size_t s = 0; s < slots; ++s)
        for (std::uint64_t w = 0; w < words; ++w)
            plains[s].push_back(prf64(PrfKey{salt, s}, w, 0x5eed));
    return plains;
}

/** encryptBatch of @p plains into fresh ciphertexts. */
std::vector<CipherText>
batchEncrypt(OtpCodec &codec,
             const std::vector<std::vector<std::uint64_t>> &plains,
             std::uint64_t words)
{
    std::vector<CipherText> out(plains.size());
    std::vector<const std::uint64_t *> plainPtrs;
    std::vector<CipherRef> refs;
    for (std::size_t s = 0; s < plains.size(); ++s) {
        out[s].lanes.resize(words);
        plainPtrs.push_back(plains[s].data());
        refs.push_back(CipherRef(out[s]));
    }
    std::vector<std::uint64_t> scratch(plains.size() * words + 1);
    codec.encryptBatch(plainPtrs.data(), refs.data(), plains.size(),
                       words, scratch.data());
    return out;
}

} // namespace

TEST(Otp, BatchMatchesSequentialEncrypts)
{
    // encryptBatch must be indistinguishable from successive
    // encryptRef calls: same nonce sequence, same ciphertext bits,
    // same tags.  Two codecs under one key, same starting counter.
    // The sweep covers empty, ragged, one-full-group and multi-group
    // batches of the tag kernel.
    const PrfKey key{11, 22};
    constexpr std::size_t kGroup = OtpCodec::kTagGroup;
    for (std::uint64_t words : {1u, 6u, 8u}) {
        OtpCodec seq(key);
        OtpCodec batch(key);
        for (std::size_t slots = 0; slots <= 2 * kGroup + 3; ++slots) {
            const auto plains = variedPlains(slots, words, slots);
            std::vector<CipherText> seqOut(slots);
            for (std::size_t s = 0; s < slots; ++s)
                seq.encryptInto(plains[s], seqOut[s]);
            const std::vector<CipherText> batchOut =
                batchEncrypt(batch, plains, words);

            ASSERT_EQ(seq.noncesIssued(), batch.noncesIssued());
            for (std::size_t s = 0; s < slots; ++s) {
                SCOPED_TRACE(testing::Message()
                             << "words " << words << " slots " << slots
                             << " slot " << s);
                EXPECT_EQ(batchOut[s].nonce, seqOut[s].nonce);
                EXPECT_EQ(batchOut[s].tag, seqOut[s].tag);
                EXPECT_EQ(batchOut[s].lanes, seqOut[s].lanes);
                EXPECT_TRUE(batch.verify(batchOut[s]));
                EXPECT_EQ(batch.decrypt(batchOut[s]), plains[s]);
            }
        }
    }
}

TEST(Otp, BatchVerifyMatchesPerSlotVerify)
{
    // verifyBatch's verdicts equal per-slot verify() for every batch
    // size through two groups and a ragged tail, with exactly one
    // nonce, lane or tag tampered at each position in turn.
    const PrfKey key{3, 4};
    constexpr std::size_t kGroup = OtpCodec::kTagGroup;
    constexpr std::uint64_t kWords = 8;
    OtpCodec codec(key);
    for (std::size_t slots = 1; slots <= 2 * kGroup + 3; ++slots) {
        const std::vector<CipherText> clean =
            batchEncrypt(codec, variedPlains(slots, kWords, 77), kWords);
        for (int field = 0; field < 4; ++field) {
            for (std::size_t bad = 0; bad < slots; ++bad) {
                std::vector<CipherText> cts = clean;
                if (field == 0)
                    cts[bad].nonce ^= 1;
                else if (field == 1)
                    cts[bad].lanes[0] ^= 1ULL << 63;
                else if (field == 2)
                    cts[bad].lanes[kWords - 1] ^= 4;
                else
                    cts[bad].tag ^= 1ULL << 17;
                std::vector<CipherView> views(cts.begin(), cts.end());
                std::vector<std::uint8_t> ok(slots, 2);
                codec.verifyBatch(views.data(), slots, ok.data());
                for (std::size_t s = 0; s < slots; ++s) {
                    EXPECT_EQ(ok[s] != 0, codec.verify(cts[s]))
                        << "slots " << slots << " field " << field
                        << " bad " << bad << " slot " << s;
                    EXPECT_EQ(ok[s], s == bad ? 0 : 1);
                }
            }
        }
    }
    codec.verifyBatch(nullptr, 0, nullptr);  // Empty batch is a no-op.
}

TEST(Otp, BatchOfOneMatchesEncryptRef)
{
    const PrfKey key{5, 9};
    OtpCodec a(key);
    OtpCodec b(key);
    std::vector<std::uint64_t> plain{1, 2, 3};

    CipherText viaRef;
    a.encryptInto(plain, viaRef);

    CipherText viaBatch;
    viaBatch.lanes.resize(plain.size());
    const std::uint64_t *pp = plain.data();
    CipherRef ref(viaBatch);
    std::vector<std::uint64_t> scratch(plain.size());
    b.encryptBatch(&pp, &ref, 1, plain.size(), scratch.data());

    EXPECT_EQ(viaBatch.nonce, viaRef.nonce);
    EXPECT_EQ(viaBatch.tag, viaRef.tag);
    EXPECT_EQ(viaBatch.lanes, viaRef.lanes);
}

TEST(Otp, WrongKeyFailsToDecrypt)
{
    OtpCodec codec(PrfKey{1, 2});
    OtpCodec other(PrfKey{3, 4});
    std::vector<std::uint64_t> plain{7, 8, 9};
    CipherText ct = codec.encrypt(plain);
    EXPECT_NE(other.decrypt(ct), plain);
}
