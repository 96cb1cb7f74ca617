#include "trace/binary_trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "can/frame.h"
#include "util/binary_io.h"

namespace canids::trace {

namespace {

/// Shared field extraction for the full decoder. Validation order matters
/// for the file loader's error messages: reserved bit, id range, dlc,
/// padding.
struct RecordFields {
  std::uint64_t ts_bits;
  std::uint32_t raw;
  bool extended;
  bool remote;
  std::uint8_t dlc;
};

[[nodiscard]] RecordFault parse_fields(const unsigned char* record,
                                       RecordFields& f) {
  f.ts_bits = 0;
  for (int b = 0; b < 8; ++b) {
    f.ts_bits |= static_cast<std::uint64_t>(record[b]) << (8 * b);
  }
  std::uint32_t id_word = 0;
  for (int b = 0; b < 4; ++b) {
    id_word |= static_cast<std::uint32_t>(record[8 + b]) << (8 * b);
  }
  if ((id_word & kBinaryReservedBit) != 0) return RecordFault::kReservedBit;
  f.extended = (id_word & kBinaryExtendedBit) != 0;
  f.remote = (id_word & kBinaryRemoteBit) != 0;
  f.raw = id_word & can::kMaxExtId;
  if (!f.extended && f.raw > can::kMaxStdId) return RecordFault::kStandardId;
  f.dlc = record[13];
  if (f.dlc > can::kMaxDataBytes) return RecordFault::kDlc;
  // Canonical-encoding check: payload bytes past dlc (all of them for
  // remote frames) must be zero, otherwise the record did not come from
  // encode_binary_record and a round trip would silently drop bits.
  const std::size_t data_bytes = f.remote ? 0 : f.dlc;
  for (std::size_t b = data_bytes; b < can::kMaxDataBytes; ++b) {
    if (record[14 + b] != 0) return RecordFault::kPadding;
  }
  return RecordFault::kNone;
}

}  // namespace

const char* record_fault_message(RecordFault fault) noexcept {
  switch (fault) {
    case RecordFault::kNone:
      return "ok";
    case RecordFault::kReservedBit:
      return "reserved id bit set";
    case RecordFault::kStandardId:
      return "standard identifier out of range";
    case RecordFault::kDlc:
      return "dlc out of range";
    case RecordFault::kPadding:
      return "nonzero payload padding";
  }
  return "unknown record fault";
}

void encode_binary_record(util::TimeNs timestamp, const can::Frame& frame,
                          std::uint8_t channel_index, unsigned char* out) {
  const auto ts = static_cast<std::uint64_t>(timestamp);
  for (int b = 0; b < 8; ++b) {
    out[b] = static_cast<unsigned char>((ts >> (8 * b)) & 0xFF);
  }
  const can::CanId id = frame.id();
  std::uint32_t id_word = id.raw();
  if (id.is_extended()) id_word |= kBinaryExtendedBit;
  if (frame.is_remote()) id_word |= kBinaryRemoteBit;
  for (int b = 0; b < 4; ++b) {
    out[8 + b] = static_cast<unsigned char>((id_word >> (8 * b)) & 0xFF);
  }
  out[12] = channel_index;
  out[13] = frame.dlc();
  // Frame guarantees payload bytes past dlc are zero (and remote frames
  // carry none), so the record stays canonical without explicit zeroing
  // beyond the initial fill.
  for (std::size_t b = 14; b < kBinaryRecordBytes; ++b) out[b] = 0;
  const auto payload = frame.payload();
  for (std::size_t b = 0; b < payload.size(); ++b) {
    out[14 + b] = payload[b];
  }
}

RecordFault decode_binary_record(const unsigned char* record,
                                 can::TimedFrame& out,
                                 std::uint8_t& channel_index) {
  RecordFields f{};
  const RecordFault fault = parse_fields(record, f);
  if (fault != RecordFault::kNone) return fault;
  channel_index = record[12];
  const can::CanId id = f.extended ? can::CanId::extended(f.raw)
                                   : can::CanId::standard(f.raw);
  out.timestamp = static_cast<util::TimeNs>(f.ts_bits);
  out.frame = f.remote
                  ? can::Frame::remote_frame(id, f.dlc)
                  : can::Frame::data_frame(
                        id, std::span<const std::uint8_t>(
                                reinterpret_cast<const std::uint8_t*>(
                                    record + 14),
                                f.dlc));
  return RecordFault::kNone;
}


bool is_binary_trace(std::istream& in) {
  const std::streampos start = in.tellg();
  std::array<char, 8> head{};
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  const bool match =
      in.gcount() == static_cast<std::streamsize>(head.size()) &&
      std::string_view(head.data(), head.size()) == kBinaryTraceMagic;
  in.clear();
  in.seekg(start);
  return match;
}

void write_binary_trace(std::ostream& out, const Trace& trace) {
  std::vector<std::string> channels;
  std::unordered_map<std::string, std::uint8_t> channel_index;
  for (const LogRecord& record : trace) {
    if (channel_index.contains(record.channel)) continue;
    if (channels.size() >= kMaxBinaryChannels) {
      throw std::invalid_argument(
          "binary trace: more than 255 distinct channel names");
    }
    channel_index.emplace(record.channel,
                          static_cast<std::uint8_t>(channels.size()));
    channels.push_back(record.channel);
  }

  util::BinaryWriter writer(out);
  writer.bytes(kBinaryTraceMagic);
  writer.u32(kBinaryTraceVersion);
  writer.u64(trace.size());
  writer.u8(static_cast<std::uint8_t>(channels.size()));
  for (const std::string& name : channels) writer.str(name);

  std::array<unsigned char, kBinaryRecordBytes> record_bytes{};
  for (const LogRecord& record : trace) {
    encode_binary_record(record.timestamp, record.frame,
                         channel_index.at(record.channel),
                         record_bytes.data());
    out.write(reinterpret_cast<const char*>(record_bytes.data()),
              static_cast<std::streamsize>(record_bytes.size()));
  }
}

BinaryTraceSource::BinaryTraceSource(std::istream& in) : in_(&in) {
  read_header();
}

BinaryTraceSource::BinaryTraceSource(const std::filesystem::path& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(owned_.get()) {
  if (!static_cast<std::ifstream&>(*owned_).is_open()) {
    throw std::runtime_error("binary trace: cannot open " + path.string());
  }
  read_header();
}

void BinaryTraceSource::corrupt(const std::string& what) const {
  throw std::runtime_error("binary trace: " + what);
}

void BinaryTraceSource::read_header() {
  util::BinaryReader reader(*in_, "binary trace");
  const std::string magic = reader.bytes(kBinaryTraceMagic.size(), "magic");
  if (magic != kBinaryTraceMagic) {
    reader.fail("bad magic (not a canidsBT trace)");
  }
  const std::uint32_t version = reader.u32("format version");
  if (version != kBinaryTraceVersion) {
    reader.fail("unsupported format version " + std::to_string(version));
  }
  record_count_ = reader.u64("record count");
  const std::uint8_t channel_count = reader.u8("channel count");
  if (record_count_ > 0 && channel_count == 0) {
    reader.fail("no channel names but a nonzero record count");
  }
  channels_.reserve(channel_count);
  for (unsigned c = 0; c < channel_count; ++c) {
    channels_.push_back(reader.str("channel name"));
  }
}

std::size_t BinaryTraceSource::read_records(std::size_t want) {
  const std::uint64_t remaining = record_count_ - records_read_;
  const auto take =
      static_cast<std::size_t>(std::min<std::uint64_t>(want, remaining));
  if (take == 0) {
    // All promised records consumed: the format ends here, so anything
    // further is corruption — same trailing-bytes strictness as the other
    // canids binary formats.
    if (in_->peek() != std::char_traits<char>::eof()) {
      corrupt("trailing bytes after final record");
    }
    return 0;
  }
  buffer_.resize(take * kBinaryRecordBytes);
  in_->read(reinterpret_cast<char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  if (static_cast<std::size_t>(in_->gcount()) != buffer_.size()) {
    corrupt("truncated at record " +
            std::to_string(records_read_ +
                           static_cast<std::size_t>(in_->gcount()) /
                               kBinaryRecordBytes) +
            " of " + std::to_string(record_count_));
  }
  return take;
}

can::TimedFrame BinaryTraceSource::decode(const unsigned char* record,
                                          std::uint64_t index,
                                          std::uint8_t& channel_index) const {
  // Error strings are built only on the cold corruption paths — this
  // decoder runs per record on the ingest fast path.
  const auto corrupt_at = [&](const char* what) {
    corrupt(what + (" in record " + std::to_string(index)));
  };
  can::TimedFrame frame;
  const RecordFault fault = decode_binary_record(record, frame, channel_index);
  if (fault != RecordFault::kNone) corrupt_at(record_fault_message(fault));
  if (channel_index >= channels_.size()) {
    corrupt_at("channel index out of range");
  }
  return frame;
}

std::optional<LogRecord> BinaryTraceSource::next_record() {
  if (read_records(1) == 0) return std::nullopt;
  std::uint8_t channel_index = 0;
  const can::TimedFrame frame =
      decode(buffer_.data(), records_read_, channel_index);
  ++records_read_;
  LogRecord record;
  record.timestamp = frame.timestamp;
  record.channel = channels_[channel_index];
  record.frame = frame.frame;
  return record;
}

std::size_t BinaryTraceSource::fill(std::vector<can::TimedFrame>& out,
                                    std::size_t max) {
  const std::size_t take = read_records(max);
  out.reserve(out.size() + take);
  std::uint8_t channel_index = 0;
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(decode(buffer_.data() + i * kBinaryRecordBytes,
                         records_read_ + i, channel_index));
  }
  records_read_ += take;
  return take;
}

}  // namespace canids::trace
