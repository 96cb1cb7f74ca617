// The compact binary trace format ("canidsBT"): one small fixed-size
// record per frame, so replay ingest is a bulk read plus integer decode
// instead of text parsing — the fixed-record trick embedded CAN capture
// tools use (19-byte records on ESP32-class loggers; 22 bytes here to
// carry nanosecond timestamps and 29-bit extended identifiers losslessly).
//
// Layout (little-endian, header via util::BinaryWriter/Reader):
//
//   bytes     "canidsBT"                    magic (8)
//   u32       format version                currently 1
//   u64       record count
//   u8        channel count                 distinct names, first-appearance
//   str x N   channel names                 u32 length + bytes
//   record x count, kBinaryRecordBytes (22) each:
//     i64     timestamp (ns)
//     u32     id word: bits 0-28 raw identifier, bit 29 extended,
//             bit 30 remote, bit 31 reserved (must be 0)
//     u8      channel index
//     u8      dlc
//     u8[8]   payload (bytes past dlc zero; all zero for remote frames)
//
// Loading is strict in the ModelBundle/PartialReport mold: bad magic or
// version, out-of-range identifiers, non-canonical payload padding,
// truncation at any byte, and trailing bytes after the final record all
// throw std::runtime_error. Deliberately NOT ParseError: a malformed text
// line is a recoverable local defect, binary corruption never is — so the
// fleet engine treats it as a fatal stream error instead of skip-one.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.h"
#include "trace/log_record.h"
#include "trace/trace_source.h"

namespace canids::trace {

inline constexpr std::string_view kBinaryTraceMagic = "canidsBT";
inline constexpr std::uint32_t kBinaryTraceVersion = 1;
/// Encoded size of one frame record.
inline constexpr std::size_t kBinaryRecordBytes = 22;
/// Channel names are indexed by one byte.
inline constexpr std::size_t kMaxBinaryChannels = 255;

// -- Record codec ------------------------------------------------------------
//
// The per-record encode/decode is buffer-oriented and independent of the
// file container, so the serve wire protocol can stream the same 22-byte
// records over a socket: the file loader maps faults to fatal corruption
// errors, the wire framer counts them as per-stream parse errors.

/// Record id-word flag bits (bits 0-28 carry the raw identifier).
inline constexpr std::uint32_t kBinaryExtendedBit = 1u << 29;
inline constexpr std::uint32_t kBinaryRemoteBit = 1u << 30;
inline constexpr std::uint32_t kBinaryReservedBit = 1u << 31;

/// One decode fault kind; kNone means the record is valid.
enum class RecordFault : std::uint8_t {
  kNone = 0,
  kReservedBit,   // id word bit 31 set
  kStandardId,    // standard-frame identifier above can::kMaxStdId
  kDlc,           // dlc above can::kMaxDataBytes
  kPadding,       // nonzero payload byte past dlc (or any byte, for remote)
};

/// Human-readable fault description ("reserved id bit set", ...).
[[nodiscard]] const char* record_fault_message(RecordFault fault) noexcept;

/// Encode one frame as a kBinaryRecordBytes record at `out`.
void encode_binary_record(util::TimeNs timestamp, const can::Frame& frame,
                          std::uint8_t channel_index, unsigned char* out);

/// Validate and decode one record to full fidelity. The channel index is
/// reported but not range-checked here — only the file container carries a
/// channel table (the wire ignores the byte).
[[nodiscard]] RecordFault decode_binary_record(const unsigned char* record,
                                               can::TimedFrame& out,
                                               std::uint8_t& channel_index);

/// Wire-hot-path decode: applies the same strict validation (reserved bit,
/// standard-id range, dlc, canonical padding) but materialises only the
/// (timestamp, id) pair the fleet engine queues — no Frame construction.
/// Defined inline: this runs per record in the serve binary data plane,
/// and the byte-assembly loops compile to single little-endian loads.
[[nodiscard]] inline RecordFault decode_binary_record_id(
    const unsigned char* record, can::TimedId& out) {
  std::uint64_t ts_bits = 0;
  for (int b = 0; b < 8; ++b) {
    ts_bits |= static_cast<std::uint64_t>(record[b]) << (8 * b);
  }
  std::uint32_t id_word = 0;
  for (int b = 0; b < 4; ++b) {
    id_word |= static_cast<std::uint32_t>(record[8 + b]) << (8 * b);
  }
  if ((id_word & kBinaryReservedBit) != 0) return RecordFault::kReservedBit;
  const bool extended = (id_word & kBinaryExtendedBit) != 0;
  const std::uint32_t raw = id_word & can::kMaxExtId;
  if (!extended && raw > can::kMaxStdId) return RecordFault::kStandardId;
  const std::uint8_t dlc = record[13];
  if (dlc > can::kMaxDataBytes) return RecordFault::kDlc;
  // Canonical-padding check as one word op: bytes past dlc (all of them
  // for remote frames) must be zero.
  std::uint64_t payload_word = 0;
  for (int b = 0; b < 8; ++b) {
    payload_word |= static_cast<std::uint64_t>(record[14 + b]) << (8 * b);
  }
  const unsigned data_bytes =
      (id_word & kBinaryRemoteBit) != 0 ? 0u : static_cast<unsigned>(dlc);
  if (data_bytes < can::kMaxDataBytes &&
      (payload_word >> (8 * data_bytes)) != 0) {
    return RecordFault::kPadding;
  }
  out.timestamp = static_cast<util::TimeNs>(ts_bits);
  out.id = extended ? can::CanId::extended(raw) : can::CanId::standard(raw);
  return RecordFault::kNone;
}

/// True when the stream starts with the binary-trace magic; the stream is
/// rewound either way. The auto-detection hook behind detect_format.
[[nodiscard]] bool is_binary_trace(std::istream& in);

/// Write the whole trace in canidsBT form. Throws std::invalid_argument
/// when the trace carries more than kMaxBinaryChannels distinct channels.
void write_binary_trace(std::ostream& out, const Trace& trace);

/// Streams a binary trace in constant memory, record-by-record or
/// block-wise via fill(). The header is read eagerly at construction.
class BinaryTraceSource final : public RecordSource {
 public:
  /// Stream variant: `in` must outlive the source.
  explicit BinaryTraceSource(std::istream& in);
  /// File variant: opens the path in binary mode; throws std::runtime_error
  /// when it cannot be opened.
  explicit BinaryTraceSource(const std::filesystem::path& path);

  std::optional<LogRecord> next_record() override;
  /// The block path: bulk-reads up to `max` fixed-size records and decodes
  /// them straight to TimedFrame — no per-record channel-string work.
  std::size_t fill(std::vector<can::TimedFrame>& out,
                   std::size_t max) override;

  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return record_count_;
  }
  [[nodiscard]] const std::vector<std::string>& channels() const noexcept {
    return channels_;
  }

 private:
  void read_header();
  [[nodiscard]] can::TimedFrame decode(const unsigned char* record,
                                       std::uint64_t index,
                                       std::uint8_t& channel_index) const;
  [[noreturn]] void corrupt(const std::string& what) const;
  /// Bulk-read up to `want` records into buffer_; 0 only at a clean end.
  std::size_t read_records(std::size_t want);

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::vector<std::string> channels_;
  std::uint64_t record_count_ = 0;
  std::uint64_t records_read_ = 0;
  std::vector<unsigned char> buffer_;
};

}  // namespace canids::trace
