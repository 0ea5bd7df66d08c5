// Trace sink: event recording, ring-buffer eviction, and Chrome-JSON
// well-formedness (parsed back by the test-only JSON parser).
#include <gtest/gtest.h>

#include <sstream>

#include "fgcs/obs/trace_sink.hpp"
#include "json_mini.hpp"

namespace fgcs::obs {
namespace {

using sim::SimDuration;
using sim::SimTime;

TEST(TraceSink, RecordsEventsInOrder) {
  TraceSink sink;
  sink.instant("cat", "first", SimTime::from_micros(10), 1);
  sink.complete("cat", "second", SimTime::from_micros(20),
                SimDuration::micros(5), 2, "\"k\":1");

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[0].phase, TraceSink::Phase::kInstant);
  EXPECT_EQ(events[0].ts_us, 10);
  EXPECT_EQ(events[1].phase, TraceSink::Phase::kComplete);
  EXPECT_EQ(events[1].dur_us, 5);
  EXPECT_EQ(events[1].track, 2u);
  EXPECT_EQ(sink.total_recorded(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingBufferEvictsOldest) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    sink.instant("cat", name, SimTime::from_micros(i), 0);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);

  // The survivors are the four most recent, still oldest-first.
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    std::string expected = "e";
    expected += std::to_string(6 + i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name, expected);
  }
}

TEST(TraceSink, UnboundedKeepsEverything) {
  TraceSink sink(0);
  for (int i = 0; i < 1000; ++i) {
    sink.instant("cat", "e", SimTime::from_micros(i), 0);
  }
  EXPECT_EQ(sink.size(), 1000u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, ClearResets) {
  TraceSink sink(2);
  sink.instant("cat", "e", SimTime::epoch(), 0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSink, ChromeJsonParsesBack) {
  TraceSink sink;
  sink.name_track(0, "machine-0");
  sink.instant("detector", "S1->S3", SimTime::from_seconds(3600.0), 0);
  sink.complete("testbed", "simulate_machine", SimTime::epoch(),
                SimDuration::days(1), 0, "\"episodes\":3,\"samples\":5760");

  std::stringstream out;
  sink.write_chrome_json(out);
  const auto doc = testing::JsonParser::parse(out.str());

  ASSERT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 3u);  // metadata + 2 events

  const auto& meta = events.array[0];
  EXPECT_EQ(meta.at("ph").string, "M");
  EXPECT_EQ(meta.at("args").at("name").string, "machine-0");

  const auto& instant = events.array[1];
  EXPECT_EQ(instant.at("name").string, "S1->S3");
  EXPECT_EQ(instant.at("cat").string, "detector");
  EXPECT_EQ(instant.at("ph").string, "i");
  EXPECT_DOUBLE_EQ(instant.at("ts").number, 3600e6);

  const auto& span = events.array[2];
  EXPECT_EQ(span.at("ph").string, "X");
  EXPECT_DOUBLE_EQ(span.at("dur").number, 86400e6);
  EXPECT_DOUBLE_EQ(span.at("args").at("episodes").number, 3.0);
}

TEST(TraceSink, JsonEscapesAwkwardNames) {
  TraceSink sink;
  sink.instant("cat\"egory", "name with \\ and \"quotes\"\n", SimTime::epoch(),
               0);
  std::stringstream out;
  sink.write_chrome_json(out);
  const auto doc = testing::JsonParser::parse(out.str());
  const auto& event = doc.at("traceEvents").array[0];
  EXPECT_EQ(event.at("name").string, "name with \\ and \"quotes\"\n");
  EXPECT_EQ(event.at("cat").string, "cat\"egory");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\x01z"), "a\\u0001z");
  EXPECT_EQ(json_escape("plain"), "plain");
}

}  // namespace
}  // namespace fgcs::obs
