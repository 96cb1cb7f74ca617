// serve-paced: ServeServer over a Unix-domain socket, 2 shards, drop-newest
// backpressure. One client thread drives three data connections (attacked
// over the binary wire, attacked over the text wire, clean over the binary
// wire) and one SUBSCRIBE connection, open loop at kSpeed times real time:
// each frame is due at its bus timestamp divided by kSpeed, whether or not
// the server keeps up. Alert latency runs from the due time of the frame
// that closes an alerting window to that alert's JSON line arriving.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ledger.h"
#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/line_framing.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace can = canids::can;
namespace analysis = canids::analysis;
namespace engine = canids::engine;
namespace serve = canids::serve;

namespace {

constexpr int kShards = 2;
/// Offered rate: bus time runs kSpeed times faster than wall time. At this
/// rate the seeds tried sustain zero drops with a backlog that does not
/// grow (see perfbench/README.md).
constexpr double kSpeed = 30.0;
/// Each stream repeats one drive this long: long enough that a seed's
/// alerting windows are many distinct windows, not a few repeated ones.
constexpr TimeNs kDrive = 240 * canids::util::kSecond;
/// Attackers run over 90% of each drive, so a run yields enough alerting
/// windows for a measured p99.
constexpr double kAttackFrom = 0.05;
constexpr double kAttackTo = 0.95;
constexpr std::uint64_t kAttackSeed = 0x5E12E;
constexpr TimeNs kWindow = canids::util::kSecond;
constexpr int kSetups = 5;
constexpr std::int64_t kTickNs = 200'000;       // client pacing granularity
constexpr std::int64_t kStatusEveryNs = 1'000'000;
constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;

struct WireStream {
  std::string key;
  bool binary = true;
  StreamInput input;
  std::string payload;                  ///< HELLO (+ BINARY) line, then data
  std::size_t header = 0;               ///< bytes before the first frame
  std::vector<std::size_t> frame_ends;  ///< payload offset past frame k
  std::vector<can::TimedId> frames;     ///< what the server decodes
  std::vector<TimeNs> timestamps;
  StreamReference reference;
};

struct ServeInput {
  std::vector<WireStream> streams;
  std::vector<std::uint32_t> id_pool;
  double bus_sim_ns_per_frame = 0.0;
};

/// Stream keys such that the clean stream shares a shard with the binary
/// attacked one and the text attacked stream has the other shard.
std::vector<std::string> pick_keys(const engine::FleetEngine& probe) {
  for (int n = 0;; ++n) {
    std::vector<std::string> keys = {"attacked-binary-", "attacked-text-",
                                     "clean-binary-"};
    for (std::string& key : keys) key.append(std::to_string(n));
    if (probe.shard_of(keys[0]) == probe.shard_of(keys[2]) &&
        probe.shard_of(keys[0]) != probe.shard_of(keys[1])) {
      return keys;
    }
  }
}

ServeInput generate(const Options& options,
                    std::shared_ptr<const canids::ids::GoldenTemplate> golden) {
  ServeInput input;
  const canids::trace::SyntheticVehicle vehicle;
  input.id_pool = vehicle.id_pool();
  analysis::DetectorOptions detector;
  detector.golden = golden;
  detector.id_pool = input.id_pool;
  engine::FleetConfig config;
  config.shards = kShards;
  const engine::FleetEngine probe(
      analysis::make_detector("bit-entropy", detector), config);
  const std::vector<std::string> keys = pick_keys(probe);

  const double bus_seconds = options.seconds * kSpeed;
  const int reps = std::max(
      1, static_cast<int>(bus_seconds /
                              canids::util::to_seconds(kDrive) + 0.5));
  const std::optional<canids::attacks::ScenarioKind> attacks[] = {
      canids::attacks::ScenarioKind::kMulti4,
      canids::attacks::ScenarioKind::kFuzzing, std::nullopt};
  std::uint64_t simulated = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    DriveSpec spec;
    spec.run_seed = derive_seed(options.seed, 100 + i);
    spec.behavior = canids::trace::kAllBehaviors[i + 1];
    spec.attack = attacks[i];
    // Same attackers in every seed (see fleet.cpp): the seed varies the
    // traffic, not what an alert costs.
    spec.attack_seed = derive_seed(kAttackSeed, i);
    spec.duration = kDrive;
    spec.attack_from = kAttackFrom;
    spec.attack_to = kAttackTo;
    WireStream stream;
    stream.key = keys[i];
    stream.binary = i != 1;
    stream.input.key = keys[i];
    stream.input.base = std::make_shared<const BaseDrive>(make_drive(vehicle, spec));
    stream.input.reps = reps;
    simulated += stream.input.base->frames.size();
    input.streams.push_back(std::move(stream));
  }
  input.bus_sim_ns_per_frame =
      static_cast<double>(now_ns() - t0) / static_cast<double>(simulated);

  for (WireStream& stream : input.streams) {
    stream.payload = "HELLO " + stream.key + "\n";
    std::string data;
    if (stream.binary) {
      stream.payload += "BINARY\n";
      data = encode_binary_wire(stream.input, &stream.frame_ends);
      stream.frames = stream.input.ids();
    } else {
      data = encode_candump_text(stream.input, &stream.frame_ends);
      stream.frames = parse_candump_text(data);
    }
    stream.header = stream.payload.size();
    stream.payload += data;
    for (std::size_t& end : stream.frame_ends) end += stream.header;
    for (const can::TimedId& frame : stream.frames) {
      stream.timestamps.push_back(frame.timestamp);
    }
  }

  // The sequential reference, untimed, one thread per stream.
  const auto prototype = analysis::make_detector("bit-entropy", detector);
  std::vector<std::thread> workers;
  for (WireStream& stream : input.streams) {
    workers.emplace_back([&stream, &prototype, &input] {
      stream.reference = run_reference(*prototype, input.id_pool, stream.frames);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return input;
}

void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent > 0) {
      data += sent;
      size -= static_cast<std::size_t>(sent);
    } else if (sent < 0 && errno != EINTR) {
      throw std::runtime_error("send failed");
    }
  }
}

/// One live system: bundle -> prototype -> engine -> server -> connections.
struct Live {
  std::unique_ptr<engine::FleetEngine> fleet;
  std::unique_ptr<serve::ServeServer> server;
  std::thread server_thread;
  int subscriber = -1;
  std::vector<int> data;
  double bundle_load_ns = 0.0;
  double engine_setup_ns = 0.0;
  double setup_ns = 0.0;

  Live(const ServeInput& input, const std::string& bundle,
       const std::string& socket) {
    const std::int64_t t0 = now_ns();
    const canids::model::StoredModels models =
        canids::model::load_models_file(bundle);
    const std::int64_t t_loaded = now_ns();
    analysis::DetectorOptions options;
    options.golden = models.golden;
    options.id_pool = input.id_pool;
    auto prototype = analysis::make_detector("bit-entropy", options);
    const std::int64_t t_built = now_ns();
    engine::FleetConfig config;
    config.shards = kShards;
    config.on_full = engine::BackpressurePolicy::kDropNewest;
    fleet = std::make_unique<engine::FleetEngine>(std::move(prototype), config);
    serve::ServeConfig serve_config;
    serve_config.uds_path = socket;
    server = std::make_unique<serve::ServeServer>(*fleet, serve_config);
    fleet->start();
    server_thread = std::thread([this] { server->run(); });
    subscriber = serve::connect_addr(socket);
    send_all(subscriber, "SUBSCRIBE\n", 10);
    // The server opens a connection's stream on its first frame, so the
    // first frame of each stream rides along with its HELLO line; the
    // system is ready once every stream is open on its shard.
    for (const WireStream& stream : input.streams) {
      data.push_back(serve::connect_addr(socket));
      send_all(data.back(), stream.payload.data(), stream.frame_ends.front());
    }
    const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
    while (fleet->stream_count() < input.streams.size()) {
      if (now_ns() > deadline) throw std::runtime_error("streams never opened");
      std::this_thread::yield();
    }
    const std::int64_t ready = now_ns();
    bundle_load_ns = static_cast<double>(t_loaded - t0);
    engine_setup_ns = static_cast<double>(ready - t_built);
    setup_ns = static_cast<double>(ready - t0);
  }

  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  void close_data() {
    for (int& fd : data) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  /// Shut the server down and return the engine's per-stream results.
  std::vector<engine::StreamResult> stop() {
    close_data();
    server->post_shutdown();
    server_thread.join();
    std::vector<engine::StreamResult> results = fleet->finish();
    if (subscriber >= 0) ::close(subscriber);
    subscriber = -1;
    return results;
  }

  ~Live() {
    if (server_thread.joinable()) (void)stop();
  }
};

struct Received {
  std::size_t stream = 0;
  analysis::WindowVerdict verdict;
  std::int64_t at_ns = 0;
};

}  // namespace

void run_serve_workload(const Options& options, Result& result) {
  check_threads(kShards + 2, result);  // shards + server + client
  const std::string bundle = options.scratch + "/models.bundle";
  const std::string socket = options.scratch + "/serve.sock";
  const auto golden = train_golden();
  write_bundle(bundle, golden);
  const ServeInput input = generate(options, golden);
  std::map<std::string, std::size_t> index_of;
  Quality quality;
  std::uint64_t ref_alerts = 0, ref_windows = 0, expected_alerts = 0;
  for (std::size_t i = 0; i < input.streams.size(); ++i) {
    const WireStream& stream = input.streams[i];
    index_of[stream.key] = i;
    quality.score(stream.input, stream.reference.verdicts);
    ref_alerts += stream.reference.counters.alerts;
    ref_windows += stream.reference.counters.windows_evaluated;
    expected_alerts += stream.reference.alerts().size();
  }

  // The client's sample buffers are allocated before the memory baseline,
  // so mem_peak_mb counts the system, not the bookkeeping.
  const std::size_t n = input.streams.size();
  const auto ticks = static_cast<std::size_t>(
      static_cast<double>(options.seconds) * 1e9 / kTickNs);
  std::vector<double> lag_us, depths;
  std::vector<Received> received;
  lag_us.reserve(4 * n * ticks);
  depths.reserve(2 * n * static_cast<std::size_t>(options.seconds) * 1000);
  received.reserve(expected_alerts + 64);

  const double heap_base = heap_in_use_mib();
  double heap_peak = heap_base;
  const auto sample_heap = [&heap_peak] {
    heap_peak = std::max(heap_peak, heap_in_use_mib());
  };
  std::vector<double> setup_s, bundle_ms, engine_ms;
  Live live(input, bundle, socket);
  sample_heap();
  setup_s.push_back(live.setup_ns / 1e9);
  bundle_ms.push_back(live.bundle_load_ns / 1e6);
  engine_ms.push_back(live.engine_setup_ns / 1e6);

  // ---- the open-loop client ------------------------------------------------
  for (int fd : live.data) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  ::fcntl(live.subscriber, F_SETFL, ::fcntl(live.subscriber, F_GETFL) | O_NONBLOCK);
  // Frame 0 of every stream went out with the set-up.
  std::vector<std::size_t> due_frames(n, 1), done_frames(n, 1);
  std::vector<std::size_t> sent(n);
  for (std::size_t i = 0; i < n; ++i) sent[i] = input.streams[i].frame_ends[0];
  const std::int64_t t_start = now_ns() + 1'000'000;
  const auto due_ns = [&](const WireStream& s, std::size_t k) {
    return t_start +
           static_cast<std::int64_t>(static_cast<double>(s.timestamps[k]) / kSpeed);
  };
  std::size_t depths_first_half = 0;  // samples taken in the first half
  serve::LineFramer framer;
  std::int64_t now = now_ns();
  const auto read_alerts = [&] {
    char buf[65536];
    for (;;) {
      const ssize_t got = ::recv(live.subscriber, buf, sizeof buf, 0);
      if (got <= 0) return;
      const std::int64_t at = now_ns();
      framer.feed(buf, static_cast<std::size_t>(got), [&](std::string_view line) {
        engine::FleetAlert alert = serve::parse_json_line(line);
        const auto found = index_of.find(alert.stream);
        if (found == index_of.end()) {
          result.fail("alert for unknown stream " + alert.stream);
          return;
        }
        received.push_back(Received{found->second, std::move(alert.verdict), at});
      });
    }
  };
  std::int64_t last_status = 0, last_send_done = t_start;
  std::size_t streams_done = 0;
  const std::int64_t give_up = t_start + options.seconds * 3'000'000'000LL +
                               kDrainTimeoutNs;
  while (streams_done < n) {
    now = now_ns();
    if (now > give_up) {
      result.fail("client could not send the offered load");
      break;
    }
    streams_done = 0;
    std::int64_t next_due = INT64_MAX;
    for (std::size_t i = 0; i < n; ++i) {
      const WireStream& s = input.streams[i];
      std::size_t& due = due_frames[i];
      while (due < s.frames.size() && due_ns(s, due) <= now) ++due;
      if (due < s.frames.size()) next_due = std::min(next_due, due_ns(s, due));
      const std::size_t target = due == 0 ? s.header : s.frame_ends[due - 1];
      if (sent[i] < target) {
        const ssize_t r = ::send(live.data[i], s.payload.data() + sent[i],
                                 target - sent[i], MSG_NOSIGNAL | MSG_DONTWAIT);
        if (r > 0) sent[i] += static_cast<std::size_t>(r);
        else if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          throw std::runtime_error("data connection failed");
        }
      }
      std::size_t& done = done_frames[i];
      if (done < s.frames.size() && s.frame_ends[done] <= sent[i]) {
        const std::int64_t at = now_ns();
        lag_us.push_back(static_cast<double>(at - due_ns(s, done)) / 1e3);
        while (done < s.frames.size() && s.frame_ends[done] <= sent[i]) ++done;
        last_send_done = std::max(last_send_done, at);
      }
      if (done == s.frames.size()) ++streams_done;
    }
    if (now - last_status >= kStatusEveryNs) {
      last_status = now;
      sample_heap();
      for (const engine::StreamStatus& row : live.fleet->status()) {
        depths.push_back(static_cast<double>(row.queue_depth));
      }
      if (now - t_start < options.seconds * 500'000'000LL) {
        depths_first_half = depths.size();
      }
    }
    read_alerts();
    if (streams_done == n) break;
    // Sleep until the next frame is due, in ticks of at least kTickNs, or
    // until an alert line arrives.
    const std::int64_t wake = std::max(next_due, now + kTickNs);
    const std::int64_t wait = std::clamp<std::int64_t>(wake - now_ns(), 0, kTickNs);
    pollfd pfd{live.subscriber, POLLIN, 0};
    const timespec ts{0, static_cast<long>(wait)};
    (void)::ppoll(&pfd, 1, &ts, nullptr);
  }
  const std::int64_t sending_ns = last_send_done - t_start;

  // Hang up: every stream's final window is flushed; wait for all alerts.
  live.close_data();
  const std::int64_t drain_deadline = now_ns() + kDrainTimeoutNs;
  while (received.size() < expected_alerts && now_ns() < drain_deadline) {
    pollfd pfd{live.subscriber, POLLIN, 0};
    (void)::poll(&pfd, 1, 10);
    read_alerts();
  }
  sample_heap();
  const double mem = heap_peak - heap_base;
  const serve::ServeStats stats = live.server->stats();
  const std::vector<engine::StreamResult> results = live.stop();
  // More set-ups for the set-up median.
  for (int i = 1; i < kSetups; ++i) {
    Live again(input, bundle, socket);
    setup_s.push_back(again.setup_ns / 1e9);
    bundle_ms.push_back(again.bundle_load_ns / 1e6);
    engine_ms.push_back(again.engine_setup_ns / 1e6);
    (void)again.stop();
  }

  // ---- checks and metrics ----------------------------------------------------
  std::vector<std::vector<analysis::WindowVerdict>> alerts(n);
  std::vector<double> latency_us;
  for (const Received& r : received) {
    const WireStream& s = input.streams[r.stream];
    alerts[r.stream].push_back(r.verdict);
    const auto k = closing_frame(s.timestamps, r.verdict.start, r.verdict.end,
                                 kWindow);
    if (k) latency_us.push_back(static_cast<double>(r.at_ns - due_ns(s, *k)) / 1e3);
  }
  Accounting total;
  std::vector<double> shard_frames(kShards, 0.0), shard_alerts(kShards, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const WireStream& s = input.streams[i];
    const auto row = std::find_if(results.begin(), results.end(),
                                  [&s](const engine::StreamResult& r) {
                                    return r.key == s.key;
                                  });
    if (row == results.end()) {
      result.fail(s.key + ": no engine stream");
      continue;
    }
    const Accounting acc = accounting_of(s.frames.size(), row->counters);
    total += acc;
    if (!acc.holds()) result.fail(s.key + ": accounting identity broken");
    const std::string diff = compare_alerts(s.reference.alerts(), alerts[i]);
    if (!diff.empty() && acc.failed() == 0) result.fail(s.key + ": " + diff);
    shard_frames[static_cast<std::size_t>(row->shard)] +=
        static_cast<double>(acc.judged);
    shard_alerts[static_cast<std::size_t>(row->shard)] +=
        static_cast<double>(row->counters.alerts);
  }
  if (stats.subscriber_dropped > 0) {
    result.fail("subscriber missed " + std::to_string(stats.subscriber_dropped) +
                " alert lines");
  }

  result.attempted = total.offered;
  result.failed = total.failed();
  const Tail tail = supported_tail(latency_us, kTailPercentile);
  result.set("setup_s", median(setup_s));
  result.set("frames_per_s", static_cast<double>(total.judged) /
                                 (static_cast<double>(sending_ns) / 1e9));
  result.set("latency_p50_us", percentile(latency_us, 50.0));
  result.set("latency_tail_us", tail.value);
  result.set("mem_peak_mb", mem);
  result.set("verdict_accuracy", quality.verdict_accuracy());
  result.set("alert_latency_p50_us", percentile(latency_us, 50.0));
  result.set("alert_latency_p99_us", supported_tail(latency_us).value);
  result.set("failed_frac", total.failed_frac());
  result.set("detect_tpr", quality.tpr());
  result.set("detect_fpr", quality.fpr());
  result.set("infer_hit_frac", quality.infer_hit_frac());
  result.set("ids.infer_calls", static_cast<double>(ref_alerts));
  result.set("ids.alert_frac", ref_windows == 0
                                   ? 0.0
                                   : static_cast<double>(ref_alerts) /
                                         static_cast<double>(ref_windows));
  result.set("can.bus_sim_ns_per_frame", input.bus_sim_ns_per_frame);
  result.set("load.lag_p99_us", percentile(lag_us, 99.0));
  result.set("engine.queue_depth_p99", percentile(depths, 99.0));

  char line[320];
  std::snprintf(line, sizeof line,
                "offered %.0fx real time for %.2f s: %llu frames on 3 "
                "connections, %zu alerts; alert latency tail at p%.2f of %zu "
                "samples%s",
                kSpeed, static_cast<double>(sending_ns) / 1e9,
                static_cast<unsigned long long>(total.offered), received.size(),
                tail.percentile, tail.samples,
                tail.supported ? "" : " (too few samples beyond p50)");
  result.notes.emplace_back(line);
  std::snprintf(line, sizeof line,
                "backlog: queue depth p99 %.0f in the first half, %.0f in the "
                "second; generator lag p99 %.1f us",
                percentile({depths.begin(), depths.begin() + static_cast<std::ptrdiff_t>(depths_first_half)}, 99.0),
                percentile({depths.begin() + static_cast<std::ptrdiff_t>(depths_first_half), depths.end()}, 99.0),
                percentile(lag_us, 99.0));
  result.notes.emplace_back(line);
  if (!options.trace) return;

  result.set("engine.shard_skew",
             std::max(shard_skew(shard_frames), shard_skew(shard_alerts)));
  result.set("engine.setup_ms", median(engine_ms));
  result.set("model.bundle_load_ms", median(bundle_ms));
  analysis::DetectorOptions detector;
  detector.golden = golden;
  detector.id_pool = input.id_pool;
  const auto prototype = analysis::make_detector("bit-entropy", detector);
  {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const auto clone = prototype->clone_for_stream(input.id_pool);
    }
    result.set("model.clone_ms_per_stream",
               static_cast<double>(now_ns() - t0) / 1e6 / static_cast<double>(n));
  }
  // One drive of the binary attacked stream through the ledger.
  StreamInput traced = input.streams.front().input;
  traced.reps = 1;
  LedgerInput ledger_input;
  ledger_input.stream = &traced;
  ledger_input.path = LedgerPath::kBinaryWire;
  ledger_input.golden = golden;
  ledger_input.id_pool = input.id_pool;
  ledger_input.prototype = prototype.get();
  report_ledger(run_ledger(ledger_input), options.spans_path(), result);
}

}  // namespace perfbench
