// Spans (nesting, timing monotonicity, enable/disable) and Chrome-trace
// JSON well-formedness, validated by round-trip parsing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"

namespace hcc::obs {
namespace {

volatile double g_sink = 0.0;

void burn_some_time() {
  double acc = 0.0;
  for (int i = 1; i < 20000; ++i) acc += 1.0 / i;
  g_sink = acc;
}

TEST(SpanTest, StopReturnsElapsedSecondsEvenWhenDisabled) {
  TraceRecorder rec;  // disabled by default
  ScopedSpan span(rec, "work", kPhaseCategory);
  burn_some_time();
  const double s = span.stop();
  EXPECT_GT(s, 0.0);
  EXPECT_DOUBLE_EQ(span.stop(), s);  // idempotent
  EXPECT_EQ(rec.size(), 0u);         // nothing recorded while disabled
}

TEST(SpanTest, RecordsEventWithDurationWhenEnabled) {
  TraceRecorder rec;
  rec.set_enabled(true);
  {
    ScopedSpan span(rec, "pull", kPhaseCategory, 3);
    span.arg("bytes", "4096");
    burn_some_time();
  }  // destructor records
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "pull");
  EXPECT_EQ(events[0].cat, kPhaseCategory);
  EXPECT_EQ(events[0].track, 3u);
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GT(events[0].dur_us, 0.0);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "bytes");
}

TEST(SpanTest, NestedSpansAreContainedAndMonotonic) {
  TraceRecorder rec;
  rec.set_enabled(true);
  {
    ScopedSpan outer(rec, "epoch", kEpochCategory);
    burn_some_time();
    {
      ScopedSpan inner(rec, "compute", kPhaseCategory);
      burn_some_time();
    }
    burn_some_time();
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner stops (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "compute");
  EXPECT_EQ(outer.name, "epoch");
  // Containment: the inner interval lies within the outer interval.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1.0);
  EXPECT_GT(outer.dur_us, inner.dur_us);
}

TEST(SpanTest, SequentialSpansHaveMonotonicTimestamps) {
  TraceRecorder rec;
  rec.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(rec, "step", kPhaseCategory);
    burn_some_time();
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
    EXPECT_GE(events[i].ts_us + 1.0,
              events[i - 1].ts_us + events[i - 1].dur_us);
  }
}

TEST(SpanTest, ClearResetsEventsAndOrigin) {
  TraceRecorder rec;
  rec.set_enabled(true);
  { ScopedSpan span(rec, "x", kPhaseCategory); }
  EXPECT_EQ(rec.size(), 1u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.track_names().empty());
}

TEST(ChromeTraceTest, JsonRoundTripsEventsAndTrackNames) {
  std::vector<TraceEvent> events;
  TraceEvent ev;
  ev.name = "he said \"pull\"\n";
  ev.cat = "phase";
  ev.track = 2;
  ev.ts_us = 12.5;
  ev.dur_us = 1000.0;
  ev.args = {{"bytes", "4096"}, {"chunk", "0"}};
  events.push_back(ev);
  const std::map<std::uint32_t, std::string> tracks = {
      {0, "server (sync)"}, {2, "worker 1 (2080S)"}};

  const std::string json = chrome_trace_json(events, tracks);
  const auto parsed = parse_chrome_trace(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 1u);
  const TraceEvent& back = parsed->events[0];
  EXPECT_EQ(back.name, ev.name);  // escaping survives the round trip
  EXPECT_EQ(back.cat, "phase");
  EXPECT_EQ(back.track, 2u);
  EXPECT_DOUBLE_EQ(back.ts_us, 12.5);
  EXPECT_DOUBLE_EQ(back.dur_us, 1000.0);
  ASSERT_EQ(back.args.size(), 2u);
  EXPECT_EQ(parsed->track_names.at(2), "worker 1 (2080S)");
  EXPECT_EQ(parsed->track_names.at(0), "server (sync)");
}

TEST(ChromeTraceTest, ParserRejectsMalformedJson) {
  EXPECT_FALSE(parse_chrome_trace("{").has_value());
  EXPECT_FALSE(parse_chrome_trace("{\"traceEvents\":3}").has_value());
  EXPECT_FALSE(parse_chrome_trace("").has_value());
  EXPECT_FALSE(
      parse_chrome_trace("{\"traceEvents\":[]} trailing").has_value());
}

TEST(ChromeTraceTest, WriteToDiskAndParseBack) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_track_name(1, "worker 0");
  { ScopedSpan span(rec, "push", kPhaseCategory, 1); }
  const std::string path = "/tmp/hccmf_obs_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(rec, path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const auto parsed = parse_chrome_trace(contents);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].name, "push");
  EXPECT_EQ(parsed->track_names.at(1), "worker 0");
  std::filesystem::remove(path);
  EXPECT_FALSE(write_chrome_trace(rec, "/nonexistent_dir/x.json"));
}

}  // namespace
}  // namespace hcc::obs
