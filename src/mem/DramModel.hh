/**
 * @file
 * Cycle-approximate DDR3 timing model.
 *
 * Stands in for DRAMSim2: it tracks per-bank row-buffer state, per-rank
 * column-command spacing (tCCD) and the shared per-channel data bus,
 * which together determine how long an ORAM path access takes and when
 * each individual block's data arrives at the controller — the arrival
 * time of the intended block (or its shadow copy) is the quantity the
 * whole paper is about.
 *
 * Simplifications relative to a full DRAM simulator (documented in
 * DESIGN.md): commands are scheduled greedily in request order (the
 * ORAM path order is fixed and public, so there is nothing for an
 * FR-FCFS scheduler to reorder), tFAW is not enforced, and refresh is
 * folded into the background term.
 */

#ifndef SBORAM_MEM_DRAMMODEL_HH
#define SBORAM_MEM_DRAMMODEL_HH

#include <cstdint>
#include <vector>

#include "AddressMap.hh"
#include "DramTiming.hh"
#include "ckpt/Serde.hh"
#include "common/Types.hh"

namespace sboram {

/** Aggregate DRAM activity statistics (feeds the energy model). */
struct DramStats
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    void
    reset()
    {
        *this = DramStats{};
    }
};

/** Result of scheduling a batch of block accesses. */
struct BatchTiming
{
    /** Data-complete time of each block, in input order. */
    std::vector<Cycles> completion;
    /** Time the last data beat finishes (batch done). */
    Cycles finish = 0;
};

/**
 * The DRAM device model.  All methods advance internal bank/bus state;
 * the caller owns request ordering.
 */
class DramModel
{
  public:
    DramModel(const DramTiming &timing, const DramGeometry &geometry);

    /**
     * Schedule a batch of block accesses in order.
     *
     * @param earliestStart First cycle any command may issue.
     * @param coords Physical block locations, in access order.
     * @param isWrite True for a write batch (path write).
     * @param compressedBus When true, model XOR compression: column
     *        commands and cell activity are unchanged but each block
     *        occupies only 1/Z of the data bus (the XOR result is the
     *        only full block that crosses the CPU-memory bus).
     * @param busDivisor Bus compression factor (Z) when compressedBus.
     */
    BatchTiming accessBatch(Cycles earliestStart,
                            const std::vector<DramCoord> &coords,
                            bool isWrite, bool compressedBus = false,
                            unsigned busDivisor = 1);

    /**
     * Schedule one path access given one coordinate per bucket, in
     * access order: each bucket's @p slotsPerBucket blocks sit in one
     * row (AddressMap::mapBucket) and the timing ignores the column,
     * so they are scheduled as that coordinate back to back — the
     * same schedule accessBatch gives the per-slot coordinates.
     * Compression divides the read burst by @p slotsPerBucket.
     *
     * @return Per-block completions and the finish time, in a buffer
     *         reused by the next accessPath call.
     */
    SB_HOT const BatchTiming &accessPath(
        Cycles earliestStart, const std::vector<DramCoord> &buckets,
        unsigned slotsPerBucket, bool isWrite, bool compressedBus = false);

    /** Single 64 B access (insecure baseline). */
    Cycles accessSingle(Cycles earliestStart, const DramCoord &coord,
                        bool isWrite);

    const DramStats &stats() const { return _stats; }
    void resetStats() { _stats.reset(); }

    const DramTiming &timing() const { return _timing; }
    const DramGeometry &geometry() const { return _geo; }

    /** Checkpoint bank/rank/channel timing state and the counters. */
    void
    saveState(ckpt::Serializer &out) const
    {
        out.u64(_banks.size());
        for (const Bank &b : _banks) {
            out.u8(b.rowOpen ? 1 : 0);
            out.u64(b.openRow);
            out.u64(b.nextColumnAt);
            out.u64(b.lastActivateAt);
            out.u64(b.prechargeOkAt);
        }
        out.u64(_ranks.size());
        for (const Rank &r : _ranks) {
            out.u64(r.nextColumnAt);
            out.u64(r.lastActivateAt);
            out.u64(r.writeToReadOkAt);
        }
        out.u64(_channels.size());
        for (const Channel &c : _channels) {
            out.u64(c.busFreeAt);
            out.u8(c.lastWasWrite ? 1 : 0);
        }
        out.u64(_stats.activates);
        out.u64(_stats.reads);
        out.u64(_stats.writes);
        out.u64(_stats.rowHits);
        out.u64(_stats.rowMisses);
    }

    void
    loadState(ckpt::Deserializer &in)
    {
        if (in.u64() != _banks.size())
            throw CkptMismatchError("DRAM bank count mismatch");
        for (Bank &b : _banks) {
            b.rowOpen = in.u8() != 0;
            b.openRow = in.u64();
            b.nextColumnAt = in.u64();
            b.lastActivateAt = in.u64();
            b.prechargeOkAt = in.u64();
        }
        if (in.u64() != _ranks.size())
            throw CkptMismatchError("DRAM rank count mismatch");
        for (Rank &r : _ranks) {
            r.nextColumnAt = in.u64();
            r.lastActivateAt = in.u64();
            r.writeToReadOkAt = in.u64();
        }
        if (in.u64() != _channels.size())
            throw CkptMismatchError("DRAM channel count mismatch");
        for (Channel &c : _channels) {
            c.busFreeAt = in.u64();
            c.lastWasWrite = in.u8() != 0;
        }
        _stats.activates = in.u64();
        _stats.reads = in.u64();
        _stats.writes = in.u64();
        _stats.rowHits = in.u64();
        _stats.rowMisses = in.u64();
    }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycles nextColumnAt = 0;   ///< Earliest column command.
        Cycles lastActivateAt = 0; ///< For tRC.
        Cycles prechargeOkAt = 0;  ///< tRAS / tWR recovery.
    };

    struct Rank
    {
        Cycles nextColumnAt = 0;   ///< tCCD spacing.
        Cycles lastActivateAt = 0; ///< tRRD spacing.
        Cycles writeToReadOkAt = 0;
    };

    struct Channel
    {
        Cycles busFreeAt = 0;
        bool lastWasWrite = false;
    };

    /** Data-bus occupancy of one block of a batch. */
    Cycles busTimeOf(bool isWrite, bool compressedBus,
                     unsigned busDivisor) const;

    /** Schedule one block; returns its data-complete time. */
    Cycles scheduleBlock(Cycles earliestStart, const DramCoord &c,
                         bool isWrite, Cycles busTime);

    Bank &bankOf(const DramCoord &c);
    Rank &rankOf(const DramCoord &c);

    DramTiming _timing;
    DramGeometry _geo;
    std::vector<Bank> _banks;
    std::vector<Rank> _ranks;
    std::vector<Channel> _channels;
    DramStats _stats;
    BatchTiming _path;  ///< accessPath's result, reused across calls.
};

} // namespace sboram

#endif // SBORAM_MEM_DRAMMODEL_HH
