#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/vspy_csv.h"

namespace canids::trace {
namespace {

Trace tiny_trace() {
  Trace trace;
  for (std::uint32_t i = 0; i < 5; ++i) {
    LogRecord r;
    r.timestamp = static_cast<util::TimeNs>(i) * util::kMillisecond;
    r.channel = "can0";
    const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(i)};
    r.frame = can::Frame::data_frame(can::CanId::standard(0x100 + i), payload);
    trace.push_back(r);
  }
  return trace;
}

TEST(DetectFormatTest, CandumpByParenthesis) {
  std::istringstream in("(1.0) can0 123#AA\n");
  EXPECT_EQ(detect_format(in), TraceFormat::kCandump);
  // The stream is rewound so a subsequent read sees everything.
  const Trace trace = CandumpSource(in).drain_records();
  EXPECT_EQ(trace.size(), 1u);
}

TEST(DetectFormatTest, CsvByDefault) {
  std::istringstream in("Time,Channel,ID,Extended,Remote,DLC\n");
  EXPECT_EQ(detect_format(in), TraceFormat::kVspyCsv);
}

TEST(DetectFormatTest, SkipsLeadingBlankLines) {
  std::istringstream in("\n\n(2.0) can0 1#\n");
  EXPECT_EQ(detect_format(in), TraceFormat::kCandump);
}

TEST(DetectFormatTest, BinaryByMagic) {
  std::stringstream io;
  save_trace(io, tiny_trace(), TraceFormat::kBinary);
  EXPECT_EQ(detect_format(io), TraceFormat::kBinary);
  // The stream is rewound, so a full load still works.
  const Trace trace = BinaryTraceSource(io).drain_records();
  EXPECT_EQ(trace.size(), tiny_trace().size());
}

TEST(TraceFormatTest, TokenRoundTrip) {
  for (TraceFormat format :
       {TraceFormat::kCandump, TraceFormat::kVspyCsv,
        TraceFormat::kBinary}) {
    const auto parsed =
        trace_format_from_token(trace_format_name(format));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, format);
  }
  EXPECT_FALSE(trace_format_from_token("pcap").has_value());
}

TEST(LoadSaveTest, RoundTripEveryFormat) {
  // Through a file and format auto-detection, as `canids` reads captures.
  const std::string path = ::testing::TempDir() + "canids_round_trip.trace";
  const Trace original = tiny_trace();
  for (TraceFormat format :
       {TraceFormat::kCandump, TraceFormat::kVspyCsv,
        TraceFormat::kBinary}) {
    save_trace_file(path, original, format);
    EXPECT_EQ(detect_format_file(path), format);
    const Trace reread = load_trace_file(path);
    ASSERT_EQ(reread.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(reread[i].frame, original[i].frame);
    }
  }
  std::remove(path.c_str());
}

TEST(LoadSaveTest, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "canids_trace_io_test.log";
  const Trace original = tiny_trace();
  save_trace_file(path, original, TraceFormat::kCandump);
  const Trace reread = load_trace_file(path);
  EXPECT_EQ(reread.size(), original.size());
  std::filesystem::remove(path);
}

TEST(LoadSaveTest, MissingFileThrows) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/path/x.log"),
               std::runtime_error);
}

TEST(TraceRecorderTest, CapturesBusTraffic) {
  can::BusSimulator bus;
  can::MessageSpec spec;
  spec.id = can::CanId::standard(0x123);
  spec.period = 10 * util::kMillisecond;
  spec.jitter_fraction = 0.0;
  spec.dlc = 2;
  spec.payload = can::PayloadKind::kCounter;
  bus.emplace_node<can::PeriodicSender>(
      "ecu", std::vector<can::MessageSpec>{spec}, util::Rng(1));
  TraceRecorder recorder(bus, "mid-speed");
  bus.run_until(100 * util::kMillisecond);
  ASSERT_EQ(recorder.trace().size(), 10u);
  EXPECT_EQ(recorder.trace().front().channel, "mid-speed");
  EXPECT_EQ(recorder.trace().front().frame.id().raw(), 0x123u);
}

TEST(SummarizeTest, CountsFramesIdsAndRate) {
  Trace trace = tiny_trace();  // 5 frames over 4 ms, 5 distinct IDs
  const TraceSummary summary = summarize(trace);
  EXPECT_EQ(summary.frames, 5u);
  EXPECT_EQ(summary.distinct_ids, 5u);
  EXPECT_EQ(summary.duration, 4 * util::kMillisecond);
  EXPECT_NEAR(summary.frames_per_second, 1250.0, 1.0);
}

TEST(SummarizeTest, EmptyTrace) {
  const TraceSummary summary = summarize({});
  EXPECT_EQ(summary.frames, 0u);
  EXPECT_EQ(summary.distinct_ids, 0u);
  EXPECT_DOUBLE_EQ(summary.frames_per_second, 0.0);
}

}  // namespace
}  // namespace canids::trace
