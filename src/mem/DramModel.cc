#include "DramModel.hh"

#include <algorithm>

namespace sboram {

DramModel::DramModel(const DramTiming &timing,
                     const DramGeometry &geometry)
    : _timing(timing), _geo(geometry),
      _banks(geometry.totalBanks()),
      _ranks(geometry.channels * geometry.ranksPerChannel),
      _channels(geometry.channels)
{
}

DramModel::Bank &
DramModel::bankOf(const DramCoord &c)
{
    const std::size_t idx =
        (static_cast<std::size_t>(c.channel) * _geo.ranksPerChannel +
         c.rank) * _geo.banksPerRank + c.bank;
    return _banks[idx];
}

DramModel::Rank &
DramModel::rankOf(const DramCoord &c)
{
    return _ranks[static_cast<std::size_t>(c.channel) *
                  _geo.ranksPerChannel + c.rank];
}

Cycles
DramModel::scheduleBlock(Cycles earliestStart, const DramCoord &c,
                         bool isWrite, Cycles busTime)
{
    Bank &bank = bankOf(c);
    Rank &rank = rankOf(c);
    Channel &channel = _channels[c.channel];

    Cycles colReadyAt = std::max(earliestStart, bank.nextColumnAt);

    // Row management.
    if (!bank.rowOpen || bank.openRow != c.row) {
        ++_stats.rowMisses;
        Cycles preAt = std::max(colReadyAt, bank.prechargeOkAt);
        Cycles actAt = bank.rowOpen ? preAt + _timing.tRP : preAt;
        actAt = std::max(actAt, bank.lastActivateAt + _timing.tRC);
        actAt = std::max(actAt, rank.lastActivateAt + _timing.tRRD);
        bank.rowOpen = true;
        bank.openRow = c.row;
        bank.lastActivateAt = actAt;
        rank.lastActivateAt = actAt;
        bank.prechargeOkAt = actAt + _timing.tRAS;
        colReadyAt = actAt + _timing.tRCD;
        ++_stats.activates;
    } else {
        ++_stats.rowHits;
    }

    // Column command constraints: tCCD on the rank, bus turnaround,
    // write-to-read recovery, and the shared data bus.
    Cycles colAt = std::max(colReadyAt, rank.nextColumnAt);
    if (!isWrite)
        colAt = std::max(colAt, rank.writeToReadOkAt);
    if (channel.lastWasWrite != isWrite)
        colAt += _timing.tRTW;

    const Cycles accessLatency = isWrite ? _timing.tCWL : _timing.tCL;
    // The data burst must find the bus free.
    if (colAt + accessLatency < channel.busFreeAt)
        colAt = channel.busFreeAt - accessLatency;

    rank.nextColumnAt = colAt + _timing.tCCD;
    const Cycles dataStart = colAt + accessLatency;
    const Cycles dataDone = dataStart + busTime;
    channel.busFreeAt = dataDone;
    channel.lastWasWrite = isWrite;

    if (isWrite) {
        ++_stats.writes;
        bank.prechargeOkAt =
            std::max(bank.prechargeOkAt, dataDone + _timing.tWR);
        rank.writeToReadOkAt = dataDone + _timing.tWTR;
    } else {
        ++_stats.reads;
    }
    return dataDone;
}

Cycles
DramModel::busTimeOf(bool isWrite, bool compressedBus,
                     unsigned busDivisor) const
{
    if (compressedBus && !isWrite && busDivisor > 1)
        return std::max<Cycles>(1, _timing.tBURST / busDivisor);
    return _timing.tBURST;
}

BatchTiming
DramModel::accessBatch(Cycles earliestStart,
                       const std::vector<DramCoord> &coords,
                       bool isWrite, bool compressedBus,
                       unsigned busDivisor)
{
    BatchTiming result;
    result.completion.reserve(coords.size());
    const Cycles busTime = busTimeOf(isWrite, compressedBus, busDivisor);
    for (const DramCoord &c : coords) {
        Cycles done = scheduleBlock(earliestStart, c, isWrite, busTime);
        result.completion.push_back(done);
        result.finish = std::max(result.finish, done);
    }
    return result;
}

SB_HOT const BatchTiming &
DramModel::accessPath(Cycles earliestStart,
                      const std::vector<DramCoord> &buckets,
                      unsigned slotsPerBucket, bool isWrite,
                      bool compressedBus)
{
    const Cycles busTime =
        busTimeOf(isWrite, compressedBus, slotsPerBucket);
    // Local cursor and maximum: scheduleBlock writes through `this`,
    // so member accumulators would be reloaded after every block.
    _path.completion.resize(buckets.size() * slotsPerBucket);
    Cycles *out = _path.completion.data();
    Cycles finish = 0;
    for (const DramCoord &c : buckets) {
        for (unsigned s = 0; s < slotsPerBucket; ++s) {
            const Cycles done =
                scheduleBlock(earliestStart, c, isWrite, busTime);
            *out++ = done;
            finish = std::max(finish, done);
        }
    }
    _path.finish = finish;
    return _path;
}

Cycles
DramModel::accessSingle(Cycles earliestStart, const DramCoord &coord,
                        bool isWrite)
{
    return scheduleBlock(earliestStart, coord, isWrite, _timing.tBURST);
}

} // namespace sboram
