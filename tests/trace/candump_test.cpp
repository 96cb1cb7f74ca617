#include "trace/candump.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.h"

namespace canids::trace {
namespace {

TEST(CandumpParseTest, StandardDataFrame) {
  const LogRecord r =
      parse_candump_line("(1436509052.249713) can0 0D1#8080000000008059");
  EXPECT_EQ(r.timestamp, 1436509052249713000LL);
  EXPECT_EQ(r.channel, "can0");
  EXPECT_EQ(r.frame.id().raw(), 0x0D1u);
  EXPECT_FALSE(r.frame.id().is_extended());
  EXPECT_EQ(r.frame.dlc(), 8);
  EXPECT_EQ(r.frame.payload()[0], 0x80);
  EXPECT_EQ(r.frame.payload()[7], 0x59);
}

TEST(CandumpParseTest, ExtendedIdByDigitCount) {
  const LogRecord r = parse_candump_line("(1.0) can1 18DB33F1#0102");
  EXPECT_TRUE(r.frame.id().is_extended());
  EXPECT_EQ(r.frame.id().raw(), 0x18DB33F1u);
  EXPECT_EQ(r.channel, "can1");
}

TEST(CandumpParseTest, RemoteFrameWithDlc) {
  const LogRecord r = parse_candump_line("(2.5) can0 5E4#R2");
  EXPECT_TRUE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 2);
}

TEST(CandumpParseTest, RemoteFrameWithoutDlc) {
  const LogRecord r = parse_candump_line("(2.5) can0 5E4#R");
  EXPECT_TRUE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 0);
}

TEST(CandumpParseTest, EmptyDataFrame) {
  const LogRecord r = parse_candump_line("(0.1) vcan0 1FF#");
  EXPECT_FALSE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 0);
}

TEST(CandumpParseTest, ToleratesSurroundingWhitespace) {
  const LogRecord r = parse_candump_line("   (0.5) can0 123#AB   ");
  EXPECT_EQ(r.frame.id().raw(), 0x123u);
}

TEST(CandumpParseTest, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_candump_line(""), ParseError);
  EXPECT_THROW((void)parse_candump_line("no-parens can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0 can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(abc) can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(-1.0) can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 XYZ#00"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#0"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#GG"), ParseError);
  EXPECT_THROW(
      (void)parse_candump_line("(1.0) can0 123#000102030405060708"),
      ParseError);  // 9 bytes
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#R9"), ParseError);
}

TEST(CandumpParseTest, RejectsOutOfRangeIds) {
  // 3 hex digits parse as standard, so 0x800 is out of range.
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 800#00"), ParseError);
  // More than 8 digits cannot happen; 8 digits above 0x1FFFFFFF rejected.
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 FFFFFFFF#00"),
               ParseError);
}

TEST(CandumpRoundTrip, RandomFramesSurviveFormatting) {
  util::Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    LogRecord original;
    original.timestamp =
        static_cast<util::TimeNs>(rng.below(2'000'000'000)) * 1000;
    original.channel = "can0";
    if (rng.uniform01() < 0.15) {
      original.frame = can::Frame::remote_frame(
          can::CanId::standard(static_cast<std::uint32_t>(rng.below(0x800))),
          static_cast<std::uint8_t>(rng.below(9)));
    } else {
      std::vector<std::uint8_t> payload(rng.below(9));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
      const bool extended = rng.uniform01() < 0.3;
      const can::CanId id =
          extended ? can::CanId::extended(static_cast<std::uint32_t>(
                         rng.below(can::kMaxExtId + 1ULL)))
                   : can::CanId::standard(static_cast<std::uint32_t>(
                         rng.below(0x800)));
      original.frame = can::Frame::data_frame(id, payload);
    }
    const LogRecord reparsed = parse_candump_line(to_candump_line(original));
    EXPECT_EQ(reparsed.frame, original.frame);
    EXPECT_EQ(reparsed.channel, original.channel);
    // The writer prints 6 fractional digits, so timestamps round-trip
    // exactly at microsecond granularity (the generator uses whole us).
    EXPECT_EQ(reparsed.timestamp, original.timestamp);
  }
}

TEST(CandumpStreamTest, SkipsBlanksAndComments) {
  std::istringstream in(
      "# capture start\n"
      "\n"
      "(1.0) can0 100#11\n"
      "   \n"
      "(2.0) can0 200#22\n");
  const Trace trace = CandumpSource(in).drain_records();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].frame.id().raw(), 0x100u);
  EXPECT_EQ(trace[1].frame.id().raw(), 0x200u);
}

TEST(CandumpStreamTest, ErrorCarriesLineNumber) {
  std::istringstream in(
      "(1.0) can0 100#11\n"
      "broken line\n");
  try {
    (void)CandumpSource(in).drain_records();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(CandumpStreamTest, WriteThenReadIdentity) {
  Trace trace;
  for (std::uint32_t i = 0; i < 20; ++i) {
    LogRecord r;
    r.timestamp = static_cast<util::TimeNs>(i) * util::kMillisecond;
    r.channel = "can0";
    const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(i)};
    r.frame = can::Frame::data_frame(can::CanId::standard(0x100 + i), payload);
    trace.push_back(r);
  }
  std::stringstream io;
  write_candump(io, trace);
  const Trace reread = CandumpSource(io).drain_records();
  ASSERT_EQ(reread.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(reread[i].frame, trace[i].frame);
  }
}

}  // namespace
}  // namespace canids::trace
