#include "trace/vspy_csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace canids::trace {
namespace {

TEST(VspyParseTest, BasicRow) {
  const LogRecord r =
      parse_vspy_row("0.123456,MS CAN,0D1,0,0,8,80,80,00,00,00,00,80,59");
  EXPECT_EQ(r.timestamp, 123456000LL);
  EXPECT_EQ(r.channel, "MS CAN");
  EXPECT_EQ(r.frame.id().raw(), 0x0D1u);
  EXPECT_EQ(r.frame.dlc(), 8);
  EXPECT_EQ(r.frame.payload()[7], 0x59);
}

TEST(VspyParseTest, ShortDlcAcceptsMissingTrailingColumns) {
  const LogRecord r = parse_vspy_row("1.0,HS CAN,123,0,0,2,AA,BB");
  EXPECT_EQ(r.frame.dlc(), 2);
  EXPECT_EQ(r.frame.payload()[1], 0xBB);
}

TEST(VspyParseTest, ExtendedAndRemoteFlags) {
  const LogRecord ext = parse_vspy_row("1.0,HS CAN,18DB33F1,1,0,1,7F");
  EXPECT_TRUE(ext.frame.id().is_extended());
  const LogRecord rtr = parse_vspy_row("1.0,HS CAN,5E4,0,1,2");
  EXPECT_TRUE(rtr.frame.is_remote());
  EXPECT_EQ(rtr.frame.dlc(), 2);
}

TEST(VspyParseTest, BooleanSpellings) {
  EXPECT_TRUE(parse_vspy_row("1.0,c,1,true,0,0").frame.id().is_extended());
  EXPECT_TRUE(parse_vspy_row("1.0,c,1,0,TRUE,1").frame.is_remote());
}

TEST(VspyParseTest, RejectsMalformedRows) {
  EXPECT_THROW((void)parse_vspy_row(""), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,1,0,0"), ParseError);  // 5 cols
  EXPECT_THROW((void)parse_vspy_row("x,c,1,0,0,0"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("-1.0,c,1,0,0,0"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,,1,0,0,0"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,GG,0,0,0"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,1,2,0,0"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,1,0,0,9"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,1,0,0,2,AA"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,1,0,0,1,1FF"), ParseError);
  EXPECT_THROW((void)parse_vspy_row("1.0,c,800,0,0,0"), ParseError);
}

TEST(VspyRoundTrip, RandomRecordsSurvive) {
  util::Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    LogRecord original;
    original.timestamp = static_cast<util::TimeNs>(rng.below(1'000'000)) *
                         util::kMicrosecond;
    original.channel = "MS CAN";
    std::vector<std::uint8_t> payload(rng.below(9));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    original.frame = can::Frame::data_frame(
        can::CanId::standard(static_cast<std::uint32_t>(rng.below(0x800))),
        payload);
    const LogRecord reparsed = parse_vspy_row(to_vspy_row(original));
    EXPECT_EQ(reparsed.frame, original.frame);
    EXPECT_EQ(reparsed.channel, original.channel);
  }
}

/// A CSV capture on disk, read back through VspyCsvSource as `canids`
/// reads one.
struct CsvFile {
  std::string path = ::testing::TempDir() + "canids_vspy_test.csv";
  explicit CsvFile(const std::string& text) { std::ofstream(path) << text; }
  ~CsvFile() { std::remove(path.c_str()); }
  [[nodiscard]] Trace read() const {
    return VspyCsvSource(path).drain_records();
  }
};

TEST(VspyStreamTest, RequiresHeader) {
  const CsvFile file("1.0,c,123,0,0,1,AA\n");
  EXPECT_THROW((void)file.read(), ParseError);
}

TEST(VspyStreamTest, HeaderThenRows) {
  const Trace trace =
      CsvFile(
          "Time,Channel,ID,Extended,Remote,DLC,B1,B2,B3,B4,B5,B6,B7,B8\n"
          "0.1,MS CAN,100,0,0,1,AA\n"
          "0.2,MS CAN,200,0,0,0\n")
          .read();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].frame.payload()[0], 0xAA);
  EXPECT_EQ(trace[1].frame.dlc(), 0);
}

TEST(VspyStreamTest, ErrorCarriesLineNumber) {
  const CsvFile file(
      "Time,Channel,ID,Extended,Remote,DLC\n"
      "0.1,c,100,0,0,0\n"
      "bad,row,here\n");
  try {
    (void)file.read();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(VspyStreamTest, WriteThenReadIdentity) {
  Trace trace;
  for (std::uint32_t i = 0; i < 10; ++i) {
    LogRecord r;
    r.timestamp = static_cast<util::TimeNs>(i) * util::kMillisecond;
    r.channel = "MS CAN";
    const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(i),
                                               0x42};
    r.frame = can::Frame::data_frame(can::CanId::standard(0x200 + i), payload);
    trace.push_back(r);
  }
  std::stringstream io;
  write_vspy_csv(io, trace);
  const Trace reread = CsvFile(io.str()).read();
  ASSERT_EQ(reread.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(reread[i].frame, trace[i].frame);
    EXPECT_EQ(reread[i].timestamp, trace[i].timestamp);
  }
}

}  // namespace
}  // namespace canids::trace
