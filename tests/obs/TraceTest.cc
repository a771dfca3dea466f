/**
 * @file
 * TraceSession unit tests: span nesting stays balanced per track, the
 * rendered document is strictly valid JSON, and a tiny fixed session
 * renders byte-for-byte to a golden string (the Chrome trace-event
 * contract Perfetto loads).
 */

#include <gtest/gtest.h>

#include "obs/Json.hh"
#include "obs/Trace.hh"

using namespace sboram::obs;

TEST(TraceSession, SpanDepthBalancesPerTrack)
{
    TraceSession t;
    EXPECT_EQ(t.openSpans(kTrackPipeline), 0u);
    t.begin(kTrackPipeline, "access", 10);
    t.begin(kTrackPipeline, "posmap", 12);
    t.begin(kTrackEviction, "evict", 14);
    EXPECT_EQ(t.openSpans(kTrackPipeline), 2u);
    EXPECT_EQ(t.openSpans(kTrackEviction), 1u);
    t.end(kTrackPipeline, 20);
    t.end(kTrackEviction, 21);
    t.end(kTrackPipeline, 25);
    EXPECT_EQ(t.openSpans(kTrackPipeline), 0u);
    EXPECT_EQ(t.openSpans(kTrackEviction), 0u);
    EXPECT_EQ(t.eventCount(), 6u);
}

TEST(TraceSession, RenderedDocumentIsValidJson)
{
    TraceSession t(3);
    t.begin(kTrackPipeline, "access", 0);
    t.complete(kTrackPipeline, "path_read", 5, 100);
    t.instant(kTrackEviction, "fault_detected", 50);
    t.end(kTrackPipeline, 200);

    const std::string doc = t.render();
    const JsonVerdict v = validateJson(doc);
    EXPECT_TRUE(v.ok) << v.error << " at byte " << v.errorOffset;
}

TEST(TraceSession, EmptySessionRendersValidJson)
{
    const TraceSession t;
    const JsonVerdict v = validateJson(t.render());
    EXPECT_TRUE(v.ok) << v.error;
}

TEST(TraceSession, GoldenRendering)
{
    TraceSession t;
    t.begin(kTrackPipeline, "access", 7);
    t.complete(kTrackEviction, "evict_path_read", 9, 40);
    t.instant(kTrackPipeline, "shadow_forward", 11);
    t.end(kTrackPipeline, 90);

    const char *golden =
        "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
        "{\"ph\": \"B\", \"pid\": 0, \"tid\": 0, \"ts\": 7, "
        "\"name\": \"access\"},\n"
        "{\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": 9, "
        "\"name\": \"evict_path_read\", \"dur\": 40},\n"
        "{\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": 11, "
        "\"name\": \"shadow_forward\", \"s\": \"t\"},\n"
        "{\"ph\": \"E\", \"pid\": 0, \"tid\": 0, \"ts\": 90}\n"
        "]}\n";
    EXPECT_EQ(t.render(), golden);
}

TEST(TraceSession, EventNamesAreEscaped)
{
    TraceSession t;
    t.instant(kTrackPipeline, "quote\"back\\slash", 1);
    const std::string doc = t.render();
    EXPECT_TRUE(validateJson(doc).ok);
    EXPECT_NE(doc.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(JsonValidator, RejectsDefectsWithOffsets)
{
    EXPECT_TRUE(validateJson("{\"a\": [1, 2.5, true, null]}").ok);
    EXPECT_FALSE(validateJson("{\"a\": }").ok);
    EXPECT_FALSE(validateJson("[1, 2,]").ok);
    EXPECT_FALSE(validateJson("").ok);

    const JsonVerdict v = validateJsonl("{\"ok\": 1}\n{bad}\n");
    EXPECT_FALSE(v.ok);
    EXPECT_GE(v.errorOffset, 10u);  // Defect is on the second line.

    EXPECT_TRUE(validateJsonl("{\"a\": 1}\n\n{\"b\": 2}\n").ok);
}
