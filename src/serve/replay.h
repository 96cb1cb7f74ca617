// The daemon's replay client: `canids send` connects to a running
// `canids serve`, announces a stream key, and writes a recorded capture as
// candump lines or (--wire binary/auto) as the canidsBT binary record
// stream — optionally paced by the capture's own timestamps, so CI,
// benches, and demos can drive the live service with reproducible
// traffic. Also usable in-process (tests, examples) against any
// SOCK_STREAM address.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace canids::serve {

/// Which data-plane wire encoding `send_trace` speaks.
enum class SendWire : std::uint8_t {
  kText,    ///< candump lines (the default, works against any server)
  kBinary,  ///< BINARY negotiation + canidsBT 22-byte records
  kAuto,    ///< binary when the capture itself is canidsBT, else text
};

struct SendOptions {
  /// Stream key sent as a HELLO line; empty = no HELLO (the server keys
  /// the stream by connection id).
  std::string key;
  /// Replay pacing: 0 (default) pushes as fast as the socket accepts;
  /// otherwise frames are paced at `speed` times recorded real time
  /// (1.0 = realtime, 20.0 = 20x fast-forward).
  double speed = 0.0;
  /// Wire encoding. kBinary/kAuto-on-canidsBT streams records with no
  /// text round-trip: 22 bytes per frame instead of a rendered candump
  /// line, decoded server-side straight from the recv buffer.
  SendWire wire = SendWire::kText;
};

struct SendStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
};

/// Connect to `addr`: a Unix-domain socket path (any string containing
/// '/') or "host:port". Returns the connected fd. Throws
/// std::runtime_error on failure.
[[nodiscard]] int connect_addr(const std::string& addr);

/// Replay `trace` (any capture format, auto-detected) to the daemon at
/// `addr`. Malformed capture lines are skipped (the point is to replay
/// frames, not to re-encode garbage). Throws std::runtime_error on
/// connect/socket failure.
SendStats send_trace(const std::string& addr,
                     const std::filesystem::path& trace,
                     const SendOptions& options = {});

}  // namespace canids::serve
