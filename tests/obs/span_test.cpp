#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "netbase/error.hpp"
#include "obs/clock.hpp"

namespace aio::obs {
namespace {

TEST(Span, NestedSpansAccumulateUnderTheirParent) {
    ManualClock clock;
    Trace trace{&clock};
    {
        Span outer = trace.span("outer");
        clock.advance(1'000'000); // 1 ms of outer-only work
        {
            Span inner = trace.span("inner");
            clock.advance(2'000'000); // 2 ms inside inner
        }
        clock.advance(1'000'000); // 1 ms more of outer-only work
    }
    const std::string json = trace.json();
    EXPECT_NE(json.find("{\"name\":\"outer\",\"count\":1,\"ms\":4.000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"name\":\"inner\",\"count\":1,\"ms\":2.000"),
              std::string::npos)
        << json;
    // inner is nested inside outer's children array, not a sibling.
    EXPECT_LT(json.find("\"outer\""), json.find("\"inner\"")) << json;
}

TEST(Span, RepeatedEntriesAggregateIntoOneNode) {
    ManualClock clock;
    Trace trace{&clock};
    for (int i = 0; i < 5; ++i) {
        Span span = trace.span("settle");
        clock.advance(1'000'000);
    }
    EXPECT_NE(trace.json().find("{\"name\":\"settle\",\"count\":5,"
                                "\"ms\":5.000"),
              std::string::npos)
        << trace.json();
}

TEST(Span, MoveTransfersOwnershipOfTheClose) {
    ManualClock clock;
    Trace trace{&clock};
    {
        Span first = trace.span("moved");
        Span second = std::move(first);
        first.close(); // inert: the moved-from span owns nothing
        clock.advance(3'000'000);
    } // second closes here
    EXPECT_NE(trace.json().find("{\"name\":\"moved\",\"count\":1,"
                                "\"ms\":3.000"),
              std::string::npos)
        << trace.json();
}

TEST(Span, CloseIsIdempotent) {
    Trace trace;
    Span span = trace.span("once");
    span.close();
    span.close();
    SUCCEED();
}

TEST(Span, EnterToleratesNullTrace) {
    Span span = Trace::enter(nullptr, "anything");
    span.close();
    SUCCEED();
}

TEST(Trace, CountNodesAccumulateWithoutTiming) {
    ManualClock clock;
    Trace trace{&clock};
    {
        const Span phase = trace.span("drain");
        trace.count("settle.completed");
        clock.advance(5'000'000); // must not leak into the count node
        Trace::count(&trace, "settle.completed", 41);
        Trace::count(nullptr, "settle.completed", 1000); // null: no-op
        trace.count("settle.retried", 0); // creates the node, count 0
    }
    const std::string json = trace.json();
    EXPECT_NE(json.find("{\"name\":\"settle.completed\",\"count\":42,"
                        "\"ms\":0.000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"name\":\"settle.retried\",\"count\":0,"
                        "\"ms\":0.000"),
              std::string::npos)
        << json;
}

TEST(Trace, ClearRequiresAllSpansClosed) {
    Trace trace;
    {
        Span open = trace.span("open");
        EXPECT_THROW(trace.clear(), net::PreconditionError);
    }
    trace.clear();
    EXPECT_EQ(trace.json(),
              "{\"name\":\"campaign\",\"count\":0,\"ms\":0.000,"
              "\"children\":[]}");
}

TEST(Trace, TableListsTheSpanTreeIndented) {
    ManualClock clock;
    Trace trace{&clock};
    {
        Span phase = trace.span("phase");
        Span step = trace.span("step");
    }
    const std::string table = trace.table();
    EXPECT_NE(table.find("campaign"), std::string::npos);
    EXPECT_NE(table.find("  phase"), std::string::npos);
    EXPECT_NE(table.find("    step"), std::string::npos);
}

} // namespace
} // namespace aio::obs
