/**
 * @file
 * Flight-recorder unit tests: the ring keeps exactly the newest
 * events oldest-first across wraparound, survives a serde round trip
 * with its cursor intact, renders strictly valid JSON, and the
 * process-wide dump registry dedupes identical dumps and is
 * publish-order independent — the property that makes the
 * flightrec artifact byte-identical at any SB_BENCH_THREADS.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ckpt/Serde.hh"
#include "obs/FlightRecorder.hh"
#include "obs/Json.hh"

using namespace sboram;
using namespace sboram::obs;

namespace {

/** Distinct, recognizable event stream: cycle i, operands (i, 2i). */
void
recordN(FlightRecorder &rec, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        rec.record(i, FlightKind::Retry, i, 2 * i);
}

} // namespace

TEST(FlightRecorder, EmptyRingHasNoEventsAndNoArtifact)
{
    FlightRecorder rec(8);
    EXPECT_TRUE(rec.empty());
    EXPECT_EQ(rec.total(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_TRUE(rec.events().empty());
}

TEST(FlightRecorder, WraparoundKeepsNewestOldestFirst)
{
    FlightRecorder rec(4);
    recordN(rec, 10);
    EXPECT_EQ(rec.total(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    const std::vector<FlightEvent> ev = rec.events();
    ASSERT_EQ(ev.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ev[i].cycle, 6 + i);
        EXPECT_EQ(ev[i].a, 6 + i);
        EXPECT_EQ(ev[i].b, 2 * (6 + i));
        EXPECT_EQ(ev[i].kind, FlightKind::Retry);
    }
}

TEST(FlightRecorder, SerdeRoundTripPreservesRingAndCursor)
{
    FlightRecorder rec(4);
    recordN(rec, 7);

    ckpt::Serializer out;
    rec.saveState(out);
    ckpt::Deserializer in(out.buffer().data(), out.buffer().size());
    FlightRecorder back(1);  // Capacity comes from the stream.
    back.loadState(in);

    EXPECT_EQ(back.total(), rec.total());
    EXPECT_EQ(back.dropped(), rec.dropped());
    EXPECT_EQ(back.capacity(), rec.capacity());
    const auto a = rec.events();
    const auto b = back.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].a, b[i].a);
        EXPECT_EQ(a[i].b, b[i].b);
    }

    // The restored cursor must continue exactly where the original
    // would: recording one more event yields identical rings.
    rec.record(99, FlightKind::WatchdogTrip, 1, 2);
    back.record(99, FlightKind::WatchdogTrip, 1, 2);
    EXPECT_EQ(rec.renderJson("x"), back.renderJson("x"));
}

TEST(FlightRecorder, RenderJsonIsStrictlyValid)
{
    FlightRecorder rec(8);
    rec.record(10, FlightKind::ShedAdmission, 3, 4);
    rec.record(20, FlightKind::PressureOn, 48);
    rec.record(30, FlightKind::SloBurn, 10000, 2);
    const std::string json = rec.renderJson("unit");
    const JsonVerdict v = validateJson(json);
    EXPECT_TRUE(v.ok) << v.error << " at " << v.errorOffset;
    EXPECT_NE(json.find("\"label\": \"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"slo_burn\""), std::string::npos);
}

TEST(FlightRecorder, KindVocabularyIsTotal)
{
    // Every enum value renders a non-placeholder name; the dump
    // vocabulary and the enum must never drift apart.
    for (std::uint8_t k = 0;
         k <= static_cast<std::uint8_t>(FlightKind::Corruption); ++k) {
        const char *name =
            flightKindInfo(static_cast<FlightKind>(k)).name;
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

TEST(FlightRegistry, DedupesIdenticalDumpsAndSortsKeys)
{
    resetFlightStateForTesting();
    FlightRecorder rec(4);
    rec.record(1, FlightKind::Retry, 1, 1);
    const std::string dump = rec.renderJson("b-label");

    // The determinism passes publish the same (label, content) twice;
    // the registry must collapse them.
    publishFlightDump("b-label", dump);
    publishFlightDump("b-label", dump);
    publishFlightDump("a-label", rec.renderJson("a-label"));

    const auto dumps = flightDumps();
    ASSERT_EQ(dumps.size(), 2u);
    EXPECT_LT(dumps[0].first, dumps[1].first);  // Sorted by key.
    EXPECT_EQ(dumps[0].first.rfind("a-label", 0), 0u);

    const std::string artifact = renderFlightArtifact(false);
    const JsonVerdict v = validateJson(artifact);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(artifact.find("\"panic\""), std::string::npos);
    resetFlightStateForTesting();
    EXPECT_TRUE(renderFlightArtifact(true).empty());
}

TEST(FlightRegistry, ArtifactIsPublishOrderIndependent)
{
    // Publish the same dump set from 8 threads in scrambled order and
    // sequentially; the rendered artifact must not move by a byte.
    std::vector<std::string> dumps;
    for (int i = 0; i < 16; ++i) {
        FlightRecorder rec(4);
        rec.record(i, FlightKind::WatchdogTick, i);
        dumps.push_back(
            rec.renderJson("run-" + std::to_string(i % 4)));
    }

    resetFlightStateForTesting();
    for (int i = 0; i < 16; ++i)
        publishFlightDump("run-" + std::to_string(i % 4), dumps[i]);
    const std::string sequential = renderFlightArtifact(false);

    resetFlightStateForTesting();
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w)
        workers.emplace_back([w, &dumps] {
            for (int i = 15 - w; i >= 0; --i)
                publishFlightDump("run-" + std::to_string(i % 4),
                                  dumps[i]);
        });
    for (std::thread &t : workers)
        t.join();
    EXPECT_EQ(renderFlightArtifact(false), sequential);
    resetFlightStateForTesting();
}

TEST(FlightRegistry, PanicSlotRendersNextToTheDumps)
{
    resetFlightStateForTesting();
    FlightRecorder rec(4);
    rec.record(7, FlightKind::Corruption, 30, 0);
    const std::string dump = rec.renderJson("crash");
    publishFlightDump("crash", dump);
    notePanicFlight(dump);
    EXPECT_EQ(panicFlight(), dump);

    const std::string artifact = renderFlightArtifact(true);
    const JsonVerdict v = validateJson(artifact);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_NE(artifact.find("\"panic\""), std::string::npos);
    EXPECT_NE(artifact.find("\"kind\": \"corruption\""),
              std::string::npos);

    // A clean exit excludes the panic slot even when one is noted.
    EXPECT_EQ(renderFlightArtifact(false).find("\"panic\""),
              std::string::npos);
    resetFlightStateForTesting();
    EXPECT_TRUE(panicFlight().empty());
}

TEST(FlightForensics, SuffixCarriesTheThreeFields)
{
    resetFlightStateForTesting();
    forensics().pressure.store(1);
    forensics().degraded.store(0);
    forensics().watchdogTickCycle.store(12345);
    const std::string s = forensicsSuffix();
    EXPECT_NE(s.find("pressure=1"), std::string::npos);
    EXPECT_NE(s.find("degraded=0"), std::string::npos);
    EXPECT_NE(s.find("last_watchdog_tick=12345"), std::string::npos);
    resetFlightStateForTesting();
}
