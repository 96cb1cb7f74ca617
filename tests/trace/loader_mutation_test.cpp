// Seeded mutation tests for the three trace loaders. Bit flips,
// overwrites, insertions and truncations are applied to a valid capture,
// and each mutant is read back through the entry points the program
// uses: format auto-detection (open_trace_source, load_trace_file), the
// candump stream source, and the vspy and binary sources. A loader may
// reject a damaged capture, but only with its documented exception, and
// every record it does yield must be a frame a bus could carry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/trace_io.h"
#include "trace/vspy_csv.h"
#include "util/csv.h"
#include "util/rng.h"

namespace canids::trace {
namespace {

constexpr int kMutantsPerFormat = 1000;

/// Standard, extended and remote frames on two channels, DLC 0..8, at
/// microsecond timestamps (the text formats' resolution).
[[nodiscard]] Trace seed_capture() {
  util::Rng rng(2718);
  Trace trace;
  for (int i = 0; i < 24; ++i) {
    const can::CanId id =
        i % 3 == 2 ? can::CanId::extended(static_cast<std::uint32_t>(
                         rng.below(can::kMaxExtId + 1ULL)))
                   : can::CanId::standard(static_cast<std::uint32_t>(
                         rng.below(can::kMaxStdId + 1ULL)));
    const auto dlc = static_cast<std::uint8_t>(i % 9);
    const util::TimeNs timestamp =
        static_cast<util::TimeNs>(i + 1) * util::kMillisecond +
        static_cast<util::TimeNs>(rng.below(1000)) * 1000;
    std::vector<std::uint8_t> payload(dlc);
    for (auto& byte : payload) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    trace.push_back(LogRecord{
        timestamp, i % 2 == 0 ? "can0" : "can1",
        i % 5 == 4 ? can::Frame::remote_frame(id, dlc)
                   : can::Frame::data_frame(id, payload)});
  }
  return trace;
}

[[nodiscard]] std::string encoded(const Trace& trace, TraceFormat format) {
  std::ostringstream out;
  save_trace(out, trace, format);
  return out.str();
}

/// One seeded mutant of `valid`: 1-3 edits, each a bit flip, an
/// overwrite or insertion, or a truncation. Overwrites and half the
/// insertions use one of `tokens`, a piece of the format's own syntax,
/// which reaches deeper into a parser than noise; the other insertions
/// are 1-8 arbitrary bytes.
[[nodiscard]] std::string mutate(const std::string& valid,
                                 const std::vector<std::string>& tokens,
                                 util::Rng& rng) {
  std::string bytes = valid;
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::uint64_t kind = rng.below(10);
    const std::string& token = tokens[rng.below(tokens.size())];
    if (kind < 3 && !bytes.empty()) {
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1u << rng.below(8));
    } else if (kind < 6 && !bytes.empty()) {
      bytes.replace(rng.below(bytes.size()), token.size(), token);
    } else if (kind < 9) {
      std::string inserted = token;
      if (rng.below(2) == 0) {
        inserted.resize(1 + rng.below(8));
        for (char& c : inserted) c = static_cast<char>(rng.below(256));
      }
      bytes.insert(rng.below(bytes.size() + 1), inserted);
    } else {
      bytes.resize(rng.below(bytes.size() + 1));
    }
  }
  return bytes;
}

/// Lines a line-oriented reader sees in `text` that are neither blank nor,
/// when `skip_comments`, '#'-comments.
[[nodiscard]] std::size_t content_lines(const std::string& text,
                                        bool skip_comments) {
  std::istringstream in(text);
  std::size_t count = 0;
  for (std::string line; std::getline(in, line);) {
    const std::string_view body = util::trim(line);
    if (body.empty() || (skip_comments && body.front() == '#')) continue;
    ++count;
  }
  return count;
}

void expect_valid(const can::Frame& frame, const std::string& where) {
  const can::CanId id = frame.id();
  EXPECT_LE(id.raw(), id.is_extended() ? can::kMaxExtId : can::kMaxStdId)
      << where;
  EXPECT_LE(frame.dlc(), can::kMaxDataBytes) << where;
  EXPECT_LE(frame.payload().size(), frame.dlc()) << where;
}

struct TextReadout {
  std::size_t records = 0;
  std::size_t parse_errors = 0;
};

/// Reads a text source to its end, stepping over each ParseError the way
/// the fleet engine does: count it and call again. Any other exception
/// fails the test. Each call consumes at least one line, so more than
/// `lines + 1` calls means the source stopped recovering.
TextReadout read_text(RecordSource& source, std::size_t lines,
                      const std::string& where) {
  TextReadout out;
  for (std::size_t call = 0; call <= lines; ++call) {
    try {
      const std::optional<LogRecord> record = source.next_record();
      if (!record) return out;
      expect_valid(record->frame, where);
      ++out.records;
    } catch (const ParseError&) {
      ++out.parse_errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": non-ParseError escaped: " << e.what();
      return out;
    }
  }
  ADD_FAILURE() << where << ": still yielding after " << lines + 1
                << " calls";
  return out;
}

/// Opens and reads a binary source block by block. The format is strict,
/// so the first fault ends the read, but only as std::runtime_error.
/// Returns true when the source read to its end.
bool read_binary(const std::function<std::unique_ptr<TraceSource>()>& open,
                 const std::string& where) {
  std::vector<can::TimedFrame> frames;
  bool clean = false;
  try {
    const std::unique_ptr<TraceSource> source = open();
    while (source->fill(frames, 7) > 0) {
    }
    clean = true;
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": non-runtime_error escaped: " << e.what();
  }
  for (const can::TimedFrame& frame : frames) expect_valid(frame.frame, where);
  return clean;
}

/// The auto-detecting entry points on a mutant written to `path`: the
/// streaming open_trace_source and the batch load_trace_file (`canids
/// train`). Detection may land on another format than the seed's.
void read_detected(const std::string& path, const std::string& text,
                   const std::string& where) {
  const TraceFormat format = detect_format_file(path);
  if (format == TraceFormat::kBinary) {
    read_binary([&] { return open_trace_source(path); }, where + " (auto)");
  } else {
    const std::unique_ptr<RecordSource> source = open_trace_source(path);
    const std::size_t lines =
        content_lines(text, format == TraceFormat::kCandump);
    const TextReadout read = read_text(*source, lines, where + " (auto)");
    if (format == TraceFormat::kCandump) {
      EXPECT_EQ(read.records + read.parse_errors, lines) << where;
    }
  }
  try {
    for (const LogRecord& record : load_trace_file(path)) {
      expect_valid(record.frame, where + " (load)");
    }
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << " (load): " << e.what();
  }
}

/// A temporary capture file, rewritten per mutant and removed at the end.
struct MutantFile {
  std::string path;
  explicit MutantFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~MutantFile() { std::remove(path.c_str()); }
  MutantFile(const MutantFile&) = delete;
  MutantFile& operator=(const MutantFile&) = delete;

  void write(const std::string& bytes) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }
};

TEST(LoaderMutationTest, CandumpYieldsValidRecordsOrParseErrors) {
  const std::string valid = encoded(seed_capture(), TraceFormat::kCandump);
  const MutantFile file("canids_mutant.log");
  const std::vector<std::string> tokens = {
      "#", "\n#", "\n", "(", ")", " ", ".", "R", "R9", "8", "9", "F",
      "20000000", "99999999999999999999"};
  util::Rng rng(101);
  TextReadout total;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    const std::string mutant = mutate(valid, tokens, rng);
    const std::string where = "candump mutant " + std::to_string(m);

    std::istringstream in(mutant);
    CandumpSource source(in);
    const std::size_t lines = content_lines(mutant, /*skip_comments=*/true);
    const TextReadout read = read_text(source, lines, where);
    EXPECT_EQ(read.records + read.parse_errors, lines) << where;
    total.records += read.records;
    total.parse_errors += read.parse_errors;

    file.write(mutant);
    read_detected(file.path, mutant, where);
  }
  // The mutants exercise both outcomes.
  EXPECT_GT(total.records, 0u);
  EXPECT_GT(total.parse_errors, 0u);
}

TEST(LoaderMutationTest, VspyCsvYieldsValidRecordsOrParseErrors) {
  const std::string valid = encoded(seed_capture(), TraceFormat::kVspyCsv);
  const MutantFile file("canids_mutant.csv");
  // A whole remote row with DLC 9: a DLC field reached by single-byte
  // edits of the seed is almost never a two-digit or >8 value.
  const std::vector<std::string> tokens = {
      ",", "\n", "\"", ".", " ", "0", "1", "9", "F", "800", "20000000",
      "true", "Time,ID", "\n0.5,can0,7FF,0,1,9\n"};
  util::Rng rng(202);
  TextReadout total;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    const std::string mutant = mutate(valid, tokens, rng);
    const std::string where = "vspy mutant " + std::to_string(m);
    file.write(mutant);

    VspyCsvSource source(file.path);
    const std::size_t lines = content_lines(mutant, /*skip_comments=*/false);
    const TextReadout read = read_text(source, lines, where);
    // Every non-blank line is a record or an error, except the header.
    EXPECT_LE(read.records + read.parse_errors, lines) << where;
    EXPECT_GE(read.records + read.parse_errors + 1, lines) << where;
    total.records += read.records;
    total.parse_errors += read.parse_errors;

    read_detected(file.path, mutant, where);
  }
  EXPECT_GT(total.records, 0u);
  EXPECT_GT(total.parse_errors, 0u);
}

TEST(LoaderMutationTest, BinaryYieldsValidRecordsOrRuntimeErrors) {
  const std::string valid = encoded(seed_capture(), TraceFormat::kBinary);
  const MutantFile file("canids_mutant.bin");
  // DLC and flag-bit boundaries, and an id word with the reserved bit.
  const std::vector<std::string> tokens = {
      std::string(1, '\0'), "\x08", "\x09", "\xFF", "\xFF\xFF\xFF\xFF",
      std::string("\x00\x00\x00\x80", 4)};
  util::Rng rng(303);
  int clean = 0;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    const std::string mutant = mutate(valid, tokens, rng);
    const std::string where = "binary mutant " + std::to_string(m);

    // In memory, the way perfbench's fleet workloads replay captures.
    std::istringstream in(mutant);
    if (read_binary([&] { return std::make_unique<BinaryTraceSource>(in); },
                    where)) {
      ++clean;
    }

    file.write(mutant);
    read_detected(file.path, mutant, where);
  }
  // Edits to timestamps, payload bytes or channel names keep a capture
  // valid; most other edits are caught.
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, kMutantsPerFormat);
}

}  // namespace
}  // namespace canids::trace
