#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "crypto/Otp.hh"

using namespace sboram;
using namespace sboram::test;

TEST(Integrity, TagVerifiesCleanCiphertext)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({1, 2, 3, 4});
    EXPECT_TRUE(codec.verify(ct));
    std::vector<std::uint64_t> plain;
    EXPECT_TRUE(codec.verifyDecrypt(ct, plain));
    EXPECT_EQ(plain, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Integrity, AnyLaneFlipBreaksTag)
{
    OtpCodec codec;
    CipherText ct = codec.encrypt({5, 6, 7, 8});
    for (std::size_t lane = 0; lane < ct.lanes.size(); ++lane) {
        CipherText tampered = ct;
        tampered.lanes[lane] ^= 1ULL << (lane * 13 % 64);
        EXPECT_FALSE(codec.verify(tampered)) << "lane " << lane;
    }
}

TEST(Integrity, NonceSubstitutionBreaksTag)
{
    OtpCodec codec;
    CipherText a = codec.encrypt({1, 1});
    CipherText b = codec.encrypt({2, 2});
    // Replay attack: splice a's lanes under b's nonce.
    CipherText spliced = b;
    spliced.lanes = a.lanes;
    EXPECT_FALSE(codec.verify(spliced));
}

TEST(Integrity, TamperedTreeSlotIsDetectedOnPathRead)
{
    OramStack fx(Scheme::Tiny, smallConfig());
    // Locate an occupied, off-stash slot and corrupt it.
    auto &tree =
        const_cast<OramTree &>(fx.oram().tree());
    bool corrupted = false;
    std::uint64_t corruptedSlot = 0;
    Addr victim = kInvalidAddr;
    for (BucketIndex b = 0; b < tree.numBuckets() && !corrupted;
         ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &slot = tree.slot(b, s);
            if (slot.isReal()) {
                corruptedSlot = tree.slotIndex(b, s);
                victim = slot.addr;
                corrupted = true;
                break;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    tree.cipherRef(corruptedSlot).lanes[0] ^= 0xdeadULL;

    EXPECT_DEATH(
        {
            // Touching the victim forces a path read over the
            // corrupted slot.
            fx.oram().access(victim, Op::Read, 0);
        },
        "integrity violation");
}
