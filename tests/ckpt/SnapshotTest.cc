/**
 * @file
 * Snapshot container tests: framing round trips, and the verification
 * ladder — every way a file can be wrong (short, foreign, stale
 * version, torn, tampered) maps to its own typed error so the
 * recovery tiers can tell the cases apart.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../common/TempDir.hh"
#include "ckpt/Snapshot.hh"
#include "common/Errors.hh"

using namespace sboram;
using sboram::test::TempDir;
using namespace sboram::ckpt;

namespace {

/** Self-deleting temp directory for file-level tests. */
std::vector<std::uint8_t>
sampleImage(std::uint64_t seq = 7, std::uint64_t fingerprint = 0x1234)
{
    SnapshotWriter w;
    w.section(kSectionCpu).u64(42);
    w.section(kSectionOram).str("oram state");
    w.section(kSectionCpu).u32(9); // Reopening appends to the section.
    return w.finish(seq, fingerprint);
}

} // namespace

TEST(Snapshot, RoundTripPreservesSectionsAndHeader)
{
    SnapshotReader r(sampleImage(7, 0x1234));
    EXPECT_EQ(r.seq(), 7u);
    EXPECT_EQ(r.fingerprint(), 0x1234u);
    EXPECT_TRUE(r.hasSection(kSectionCpu));
    EXPECT_TRUE(r.hasSection(kSectionOram));
    EXPECT_FALSE(r.hasSection(kSectionDram));

    Deserializer cpu = r.section(kSectionCpu);
    EXPECT_EQ(cpu.u64(), 42u);
    EXPECT_EQ(cpu.u32(), 9u);
    EXPECT_TRUE(cpu.atEnd());

    Deserializer oram = r.section(kSectionOram);
    EXPECT_EQ(oram.str(), "oram state");
    EXPECT_TRUE(oram.atEnd());
}

TEST(Snapshot, AbsentSectionThrowsMismatch)
{
    SnapshotReader r(sampleImage());
    EXPECT_THROW(r.section(kSectionPolicy), CkptMismatchError);
}

TEST(Snapshot, EmptySnapshotRoundTrips)
{
    SnapshotWriter w;
    SnapshotReader r(w.finish(1, 2));
    EXPECT_EQ(r.seq(), 1u);
    EXPECT_FALSE(r.hasSection(kSectionCpu));
}

TEST(Snapshot, ShortFileIsTruncated)
{
    std::vector<std::uint8_t> image = sampleImage();
    // Anything shorter than the fixed header cannot be parsed at all.
    image.resize(10);
    EXPECT_THROW(SnapshotReader{image}, CkptTruncatedError);
    EXPECT_THROW(SnapshotReader{std::vector<std::uint8_t>{}},
                 CkptTruncatedError);
}

TEST(Snapshot, TornTailIsTruncated)
{
    // A torn write that kept the header but lost part of the payload
    // is a length mismatch, reported before any checksum talk.
    std::vector<std::uint8_t> image = sampleImage();
    image.resize(image.size() - 5);
    EXPECT_THROW(SnapshotReader{image}, CkptTruncatedError);
}

TEST(Snapshot, WrongMagicIsBadMagic)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[0] ^= 0xff;
    EXPECT_THROW(SnapshotReader{image}, CkptBadMagicError);
}

TEST(Snapshot, WrongVersionIsVersionError)
{
    // Version sits right after the 8-byte magic; a bumped format must
    // be reported as version skew, not as corruption.
    std::vector<std::uint8_t> image = sampleImage();
    image[8] += 1;
    EXPECT_THROW(SnapshotReader{image}, CkptVersionError);

    // Version 5 (histograms with kind tags) is skew too.
    image = sampleImage();
    image[8] = 5;
    EXPECT_THROW(SnapshotReader{image}, CkptVersionError);
}

TEST(Snapshot, FlippedPayloadBitIsChecksumError)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[45] ^= 0x01; // Inside the payload, past the 40-byte header.
    EXPECT_THROW(SnapshotReader{image}, CkptChecksumError);
}

TEST(Snapshot, FlippedMacBitIsChecksumError)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.back() ^= 0x80;
    EXPECT_THROW(SnapshotReader{image}, CkptChecksumError);
}

TEST(Snapshot, EveryPayloadByteIsCovered)
{
    // The MAC covers header and payload alike: flipping any single
    // byte before the trailer must be rejected with a typed error.
    const std::vector<std::uint8_t> good = sampleImage();
    for (std::size_t i = 0; i < good.size() - 8; i += 7) {
        std::vector<std::uint8_t> bad = good;
        bad[i] ^= 0x10;
        EXPECT_THROW(SnapshotReader{bad}, CheckpointError)
            << "byte " << i << " flip was accepted";
    }
}

TEST(Snapshot, FileRoundTripAndAtomicity)
{
    TempDir dir;
    const std::string path = dir.path() + "/snap.g0";
    const std::vector<std::uint8_t> image = sampleImage();

    writeFileAtomic(path, image);
    EXPECT_EQ(readFile(path), image);

    // Atomic rename means no temp residue is left next to the file.
    for (const std::string &name : dir.entries())
        EXPECT_EQ(name.find(".tmp"), std::string::npos)
            << "temp file left behind: " << name;

    // Overwrite in place with a newer generation.
    const std::vector<std::uint8_t> image2 = sampleImage(8, 0x1234);
    writeFileAtomic(path, image2);
    EXPECT_EQ(readFile(path), image2);
}

TEST(Snapshot, MissingFileIsIoError)
{
    TempDir dir;
    EXPECT_THROW(readFile(dir.path() + "/nope"), CkptIoError);
    EXPECT_THROW(
        writeFileAtomic(dir.path() + "/no/such/dir/snap", {1, 2, 3}),
        CkptIoError);
}
