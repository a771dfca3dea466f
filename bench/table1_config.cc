/**
 * @file
 * Table I reproduction + Section V-C hardware overhead accounting:
 * prints the full experimental configuration, the derived ORAM
 * geometry (paper scale and simulated scale), the measured path
 * access latency, and the storage/logic overhead of the shadow block
 * hardware.
 */

#include <cstdio>

#include "BenchUtil.hh"
#include "sim/OramStack.hh"

using namespace sboram;
using namespace sboram::bench;

namespace {

void
geometryRows(Table &t, const char *label, OramConfig cfg)
{
    const OramGeometry geo = OramGeometry::derive(cfg);
    t.beginRow(std::string(label) + " data blocks");
    t.cell(cfg.dataBlocks);
    t.beginRow(std::string(label) + " total blocks (with posmap)");
    t.cell(geo.totalBlocks);
    t.beginRow(std::string(label) + " tree levels (L)");
    t.cell(static_cast<std::uint64_t>(geo.leafLevel));
    t.beginRow(std::string(label) + " buckets");
    t.cell(geo.numBuckets);
    t.beginRow(std::string(label) + " DRAM footprint (MB)");
    t.cell(static_cast<double>(geo.numSlots * cfg.blockBytes) /
               (1024.0 * 1024.0),
           1);
    // Section V-C: 1 shadow bit per block slot.
    t.beginRow(std::string(label) + " shadow-bit overhead (MB)");
    t.cell(static_cast<double>(geo.numSlots) / 8.0 /
               (1024.0 * 1024.0),
           3);
}

} // namespace

static int
runBench()
{
    Table cfgTable("Table I — processor and memory configuration");
    cfgTable.header({"parameter", "value"});
    cfgTable.row({"core (default)", "in-order single-core, 2 GHz"});
    cfgTable.row({"core (Fig. 18)", "out-of-order, 4 cores, window 8"});
    cfgTable.row({"data block size", "64 B"});
    cfgTable.row({"slots per bucket (Z)", "5"});
    cfgTable.row({"eviction rate (A)", "5"});
    cfgTable.row({"DRAM utilization", "50%"});
    cfgTable.row({"PLB", "64 KB"});
    cfgTable.row({"AES-128 latency", "32 cycles"});
    cfgTable.row({"memory", "DDR3-1333, 2 channels, 21.3 GB/s"});
    cfgTable.row({"hot address cache", "1 KB (128 entries, 4-way)"});
    cfgTable.print();

    Table geo("Derived ORAM geometry");
    geo.header({"quantity", "value"});

    OramConfig paper;
    paper.dataBlocks = std::uint64_t(1) << 26;  // 4 GB
    geometryRows(geo, "paper (4GB)", paper);

    OramConfig scaled = paperSystem().oram;
    geometryRows(geo, "simulated (64MB)", scaled);
    geo.print();

    // Measured path latency at the simulated scale.
    OramStack stack(Scheme::Tiny, scaled);
    TinyOram &oram = stack.oram();
    const Cycles pathLat = oram.estimatePathReadLatency();

    Table derived("Measured platform characteristics");
    derived.header({"quantity", "value"});
    derived.beginRow("path read latency (cycles)");
    derived.cell(static_cast<std::uint64_t>(pathLat));
    derived.beginRow("blocks per path read");
    derived.cell(static_cast<std::uint64_t>(
        (oram.geometry().leafLevel + 1) * scaled.slotsPerBucket));
    derived.beginRow("timing-protection slot (auto, cycles)");
    derived.cell(static_cast<std::uint64_t>(
        pathLat + 2 * pathLat / scaled.evictionRate));
    derived.print();

    Table overhead("Section V-C — shadow block hardware overhead");
    overhead.header({"structure", "size"});
    overhead.row({"shadow bit (per 64B block)", "1 bit"});
    overhead.row({"hot address cache", "1 KB SRAM"});
    overhead.row({"RD-queue + HD-queue",
                  "~13,000 gates (95 entries x 2, comparator trees)"});
    overhead.row({"partitioning level register", "5 bits"});
    overhead.row({"DRI counter register", "3 bits (best width)"});
    overhead.print();
    return 0;
}

int
main(int argc, char **argv)
{
    return sboram::bench::guardedMain(argc, argv, runBench);
}
