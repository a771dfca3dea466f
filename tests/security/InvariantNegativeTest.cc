#include <gtest/gtest.h>

#include "../oram/OramTestUtil.hh"
#include "common/Rng.hh"
#include "security/InvariantChecker.hh"

using namespace sboram;
using namespace sboram::test;

/**
 * Negative tests: the invariant checker must actually catch
 * violations, not just bless healthy states.  Each test corrupts the
 * (untrusted-memory) tree through the test-only mutable accessors
 * and expects a specific complaint.
 */
namespace {

std::unique_ptr<OramStack>
workedFixture()
{
    auto fx = std::make_unique<OramStack>(Scheme::Shadow, smallConfig());
    Rng rng(91);
    Cycles t = 0;
    for (int i = 0; i < 600; ++i) {
        t = fx->oram()
                .access(rng.below(1 << 10),
                        rng.chance(0.3) ? Op::Write : Op::Read,
                        t + 150)
                .completeAt;
    }
    return fx;
}

/** Find any occupied slot matching a predicate. */
template <typename Pred>
bool
findSlot(OramTree &tree, Pred &&pred, BucketIndex &bOut,
         unsigned &sOut)
{
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            if (pred(tree.slot(b, s))) {
                bOut = b;
                sOut = s;
                return true;
            }
        }
    }
    return false;
}

} // namespace

TEST(InvariantNegative, DetectsOffPathBlock)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());
    BucketIndex b;
    unsigned s;
    ASSERT_TRUE(findSlot(tree,
                         [](const Slot &sl) { return sl.isReal(); },
                         b, s));
    // Corrupt the label so the block is no longer on its path.
    tree.slot(b, s).leaf ^= 1;
    InvariantReport report = checkInvariants(fx->oram());
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.firstViolation.find("posmap label"),
              std::string::npos)
        << report.firstViolation;
}

TEST(InvariantNegative, DetectsDuplicateRealCopy)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());
    // Clone a real block into a spare slot of the same bucket (same
    // level, so only the one-real-copy rule is broken).  Shadow slots
    // are droppable by design, so displacing one is fair game.
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        int realSlot = -1;
        int spareSlot = -1;
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            const Slot &sl = tree.slot(b, s);
            if (sl.isReal()) {
                if (realSlot < 0)
                    realSlot = static_cast<int>(s);
            } else if (spareSlot < 0 ||
                       tree.slot(b, static_cast<unsigned>(spareSlot))
                           .valid()) {
                // Prefer an empty slot over evicting a shadow.
                if (!sl.valid() || spareSlot < 0)
                    spareSlot = static_cast<int>(s);
            }
        }
        if (realSlot < 0 || spareSlot < 0)
            continue;
        tree.slot(b, static_cast<unsigned>(spareSlot)) =
            tree.slot(b, static_cast<unsigned>(realSlot));
        InvariantReport report = checkInvariants(fx->oram());
        EXPECT_FALSE(report.ok);
        EXPECT_NE(report.firstViolation.find("real copies"),
                  std::string::npos)
            << report.firstViolation;
        return;
    }
    GTEST_SKIP() << "no bucket holds a real block and a spare slot";
}

TEST(InvariantNegative, DetectsShadowBelowReal)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());
    // Find a real block above the leaf level with a free slot in a
    // descendant bucket on its own path.
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        const unsigned level = AddressMap::levelOf(b);
        if (level >= tree.leafLevel())
            continue;
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            Slot &slot = tree.slot(b, s);
            if (!slot.isReal())
                continue;
            const BucketIndex leafBucket =
                tree.bucketOnPath(slot.leaf, tree.leafLevel());
            for (unsigned k = 0; k < tree.slotsPerBucket(); ++k) {
                Slot &deep = tree.slot(leafBucket, k);
                if (deep.valid())
                    continue;
                deep = slot;
                deep.type = BlockType::Shadow;
                InvariantReport report =
                    checkInvariants(fx->oram());
                EXPECT_FALSE(report.ok)
                    << "shadow strictly below real went unnoticed";
                EXPECT_NE(report.firstViolation.find(
                              "not above real"),
                          std::string::npos)
                    << report.firstViolation;
                return;
            }
        }
    }
    GTEST_SKIP() << "no suitable victim found";
}

TEST(InvariantNegative, DetectsVersionDivergence)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());
    BucketIndex b;
    unsigned s;
    ASSERT_TRUE(findSlot(
        tree, [](const Slot &sl) { return sl.isShadow(); }, b, s));
    tree.slot(b, s).version += 7;
    InvariantReport report = checkInvariants(fx->oram());
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.firstViolation.find("divergent versions"),
              std::string::npos)
        << report.firstViolation;
}

TEST(InvariantNegative, DetectsRealLevelTableDrift)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());
    // Move a real block one level up along its own path (it stays on
    // the path, but the controller's level table now disagrees).
    // Scan every below-root real; displace a parent shadow if the
    // parent bucket has no empty slot (shadows are droppable).
    for (BucketIndex b = 0; b < tree.numBuckets(); ++b) {
        const unsigned level = AddressMap::levelOf(b);
        if (level == 0)
            continue;
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            Slot &slot = tree.slot(b, s);
            if (!slot.isReal())
                continue;
            const BucketIndex parent =
                tree.bucketOnPath(slot.leaf, level - 1);
            int dest = -1;
            for (unsigned k = 0; k < tree.slotsPerBucket(); ++k) {
                const Slot &p = tree.slot(parent, k);
                if (!p.valid()) {
                    dest = static_cast<int>(k);
                    break;
                }
                if (!p.isReal() && dest < 0)
                    dest = static_cast<int>(k);
            }
            if (dest < 0)
                continue;
            tree.slot(parent, static_cast<unsigned>(dest)) = slot;
            slot.clear();
            InvariantReport report = checkInvariants(fx->oram());
            EXPECT_FALSE(report.ok);
            EXPECT_NE(report.firstViolation.find("realLevel table"),
                      std::string::npos)
                << report.firstViolation;
            return;
        }
    }
    GTEST_SKIP() << "no movable below-root real block";
}

TEST(InvariantNegative, DetectsTreeShadowOfStashResidentReal)
{
    auto fx = workedFixture();
    auto &tree = const_cast<OramTree &>(fx->oram().tree());

    // Find a real block living in the stash...
    StashEntry victim;
    bool found = false;
    fx->oram().stash().forEach([&](const StashEntry &e) {
        if (!found && e.type == BlockType::Real) {
            victim = e;
            found = true;
        }
    });
    if (!found)
        GTEST_SKIP() << "no real block in the stash";

    // ...and plant a tree shadow of it anywhere on its path.
    for (unsigned level = 0; level <= tree.leafLevel(); ++level) {
        const BucketIndex b = tree.bucketOnPath(victim.leaf, level);
        for (unsigned s = 0; s < tree.slotsPerBucket(); ++s) {
            Slot &slot = tree.slot(b, s);
            if (slot.valid())
                continue;
            slot.type = BlockType::Shadow;
            slot.addr = static_cast<std::uint32_t>(victim.addr);
            slot.leaf = static_cast<std::uint32_t>(victim.leaf);
            slot.version = victim.version;
            InvariantReport report = checkInvariants(fx->oram());
            EXPECT_FALSE(report.ok)
                << "tree shadow of a stash-resident real unnoticed";
            EXPECT_NE(report.firstViolation.find(
                          "real copy is in the stash"),
                      std::string::npos)
                << report.firstViolation;
            return;
        }
    }
    GTEST_SKIP() << "no free slot on the victim's path";
}
