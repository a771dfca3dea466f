/**
 * @file
 * Versioned, integrity-framed snapshot container (DESIGN.md §7).
 *
 * A snapshot file is:
 *
 *     magic "SBCKPT01"                         8 B
 *     format version                           u32
 *     section count                            u32
 *     sequence number (generation)             u64
 *     point fingerprint                        u64
 *     payload byte count                       u64
 *     sections: { id u32, length u64, bytes }  payload
 *     PRF-MAC over all preceding bytes         u64
 *
 * Verification order at load — each failure is a distinct typed error
 * from common/Errors.hh so tests and the recovery tiers can tell torn
 * writes from tampering from version skew:
 *
 *     short/absent header  -> CkptTruncatedError
 *     wrong magic          -> CkptBadMagicError
 *     wrong version        -> CkptVersionError
 *     size != promised     -> CkptTruncatedError
 *     MAC mismatch         -> CkptChecksumError
 *     section overrun      -> CkptTruncatedError
 */

#ifndef SBORAM_CKPT_SNAPSHOT_HH
#define SBORAM_CKPT_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/Serde.hh"

namespace sboram {
namespace ckpt {

/** Current snapshot format version.  Version 6: histograms are
 *  log2-only and dropped the binning-kind tag and bin width from
 *  their serialized form, and RunMetrics (.done markers) dropped the
 *  never-assigned avgForwardLevel.  Version 5: histograms gained a
 *  binning-kind tag in their serialized form and the new
 *  kSectionReqObs carries the request-observability state (timeline
 *  pool, stage accumulator, exemplar reservoir, SLO monitor, flight
 *  recorder).  Version 4: the RecoveryManager state grew the
 *  service-pressure latch, and service-mode snapshots add the
 *  kSectionSvc cursor (arrival-generator state, admitted queue,
 *  latency samples).  Version 3 added the recovery ladder's state,
 *  the tier-3 reseed generation and resilience counters.  Old
 *  snapshots are rejected with CkptVersionError before any state is
 *  mutated and fall back per the existing recovery tiers. */
constexpr std::uint32_t kSnapshotVersion = 6;

/** Well-known section ids.  kSectionOram, kSectionPolicy and
 *  kSectionDram are written and read by sim/OramStack for both
 *  drivers. */
enum SectionId : std::uint32_t
{
    kSectionCpu = 1,      ///< CpuCursor (trace position + core state).
    kSectionPort = 2,     ///< Memory port (slot grid, busy times).
    kSectionOram = 3,     ///< TinyOram and everything under it.
    kSectionPolicy = 4,   ///< ShadowPolicy / partition / hot cache.
    kSectionDram = 5,     ///< DramModel bank/rank/channel timing.
    kSectionMetrics = 6,  ///< Partial RunMetrics (missRetireTimes).
    kSectionMem = 7,      ///< InsecureMemory baseline state.
    kSectionObs = 8,      ///< Observability counters/sampler (optional).
    kSectionSvc = 9,      ///< Service pipeline (arrivals cursor, queue).
    kSectionReqObs = 10,  ///< Request observability (timelines, exemplars,
                          ///< SLO monitor, flight recorder).
    kSectionResult = 100, ///< Final RunMetrics of a completed point.
};

/**
 * Accumulates named sections and emits the framed, MAC'd byte image.
 * Sections are written in the order they were first opened.
 */
class SnapshotWriter
{
  public:
    /** Serializer for the given section (created on first use). */
    Serializer &section(std::uint32_t id);

    /**
     * Frame everything into a verifiable byte image.  The writer is
     * spent afterwards.
     */
    std::vector<std::uint8_t> finish(std::uint64_t seq,
                                     std::uint64_t fingerprint);

  private:
    std::vector<std::uint32_t> _order;
    std::map<std::uint32_t, Serializer> _sections;
};

/**
 * Parses and verifies a snapshot image.  The constructor throws one
 * of the typed checkpoint errors above on any defect; a constructed
 * reader is fully verified.  Keeps its own copy of the bytes so
 * section() deserializers stay valid.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::vector<std::uint8_t> image);

    std::uint64_t seq() const { return _seq; }
    std::uint64_t fingerprint() const { return _fingerprint; }

    bool hasSection(std::uint32_t id) const;

    /** Reader over a section; throws CkptMismatchError if absent. */
    Deserializer section(std::uint32_t id) const;

  private:
    std::vector<std::uint8_t> _image;
    std::uint64_t _seq = 0;
    std::uint64_t _fingerprint = 0;
    /// id -> (offset into _image, length).
    std::map<std::uint32_t, std::pair<std::size_t, std::size_t>> _sections;
};

/**
 * Crash-consistent file write: temp file in the same directory,
 * fsync, atomic rename over the target, fsync of the directory.
 * Throws CkptIoError on any OS-level failure.
 */
void writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/** Whole-file read; throws CkptIoError if unreadable or absent. */
std::vector<std::uint8_t> readFile(const std::string &path);

} // namespace ckpt
} // namespace sboram

#endif // SBORAM_CKPT_SNAPSHOT_HH
