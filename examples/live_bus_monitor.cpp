// Live bus monitor, service edition: the same timeline of attacks as
// before, but instead of wiring a detector straight to the bus, the
// monitor drives the full live-serving stack in-process — a FleetEngine
// behind a ServeServer on a Unix-domain socket. Bus frames go out over a
// data connection as candump lines (exactly what `canids send` would
// write), alerts come back over a SUBSCRIBE connection as JSON lines, and
// halfway through the run the control socket hot-reloads the model bundle
// without the stream noticing. What `canids serve` does in production,
// observable end to end in one process.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "engine/fleet_engine.h"
#include "metrics/experiment.h"
#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/line_framing.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "trace/candump.h"
#include "trace/synthetic_vehicle.h"

using namespace canids;

namespace {

struct TimelineEvent {
  util::TimeNs at;
  std::string label;
};

void send_all(int fd, const std::string& data) {
  const char* cursor = data.data();
  std::size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t sent = ::send(fd, cursor, remaining, MSG_NOSIGNAL);
    if (sent > 0) {
      cursor += sent;
      remaining -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    std::perror("send");
    return;
  }
}

/// One control-protocol exchange (RELOAD, STATUS, SHUTDOWN): connect, one
/// command line out, one reply line back.
std::string control_command(const std::string& control_path,
                            const std::string& command) {
  const int fd = serve::connect_addr(control_path);
  send_all(fd, command + "\n");
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got > 0) {
      reply.append(buf, static_cast<std::size_t>(got));
      const std::size_t newline = reply.find('\n');
      if (newline != std::string::npos) {
        reply.resize(newline);
        break;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  return reply;
}

}  // namespace

int main() {
  trace::SyntheticVehicle vehicle;

  // Train quickly (7 behaviours x 2 windows); production setups would use
  // the paper's full 35.
  metrics::ExperimentConfig experiment_config;
  experiment_config.training_windows = 14;
  metrics::ExperimentRunner runner(experiment_config);
  const model::StoredModels models{runner.train_shared(), nullptr, nullptr};

  // The serving stack wants its model as an on-disk bundle — that is what
  // RELOAD re-reads for the hot swap.
  const std::string tag = "canids-monitor-" + std::to_string(::getpid());
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  const std::string bundle_path = (tmp / (tag + ".bundle")).string();
  model::save_models_file(bundle_path, models);

  // --- The serving stack: engine + socket server, all in this process ------
  engine::FleetConfig fleet_config;
  fleet_config.shards = 1;
  analysis::DetectorOptions detector_options;
  detector_options.id_pool = vehicle.id_pool();  // enables suspect inference
  detector_options.adopt_models(models);
  engine::FleetEngine engine(
      analysis::make_detector("bit-entropy", detector_options), fleet_config);

  serve::ServeConfig serve_config;
  serve_config.uds_path = (tmp / (tag + ".sock")).string();
  serve_config.control_path = (tmp / (tag + ".ctl")).string();
  serve_config.models_path = bundle_path;
  serve::ServeServer server(engine, serve_config);

  engine.start();
  std::thread server_thread([&server] { server.run(); });

  // --- Alert subscriber: a second connection, reading JSON lines -----------
  const int subscriber_fd = serve::connect_addr(serve_config.uds_path);
  send_all(subscriber_fd, "SUBSCRIBE\n");
  std::atomic<std::size_t> alert_count{0};
  std::thread alert_thread([subscriber_fd, &alert_count] {
    serve::LineFramer framer;
    char buf[4096];
    for (;;) {
      const ssize_t got = ::recv(subscriber_fd, buf, sizeof buf, 0);
      if (got == 0) break;  // server teardown closes subscribers
      if (got < 0) {
        if (errno == EINTR) continue;
        break;
      }
      framer.feed(buf, static_cast<std::size_t>(got),
                  [&alert_count](std::string_view line) {
                    const engine::FleetAlert alert =
                        serve::parse_json_line(line);
                    ++alert_count;
                    std::printf(
                        "%6.1fs  *** ALERT on %s: entropy deviation on bits",
                        util::to_seconds(alert.verdict.start),
                        alert.stream.c_str());
                    if (alert.verdict.detail) {
                      for (const int bit : alert.verdict.detail->alerted_bits) {
                        std::printf(" %d", bit + 1);
                      }
                      std::printf(" | top suspects:");
                      std::size_t shown = 0;
                      for (const std::uint32_t id :
                           alert.verdict.detail->ranked_candidates) {
                        if (++shown > 3) break;
                        std::printf(" %03X", id);
                      }
                    }
                    std::printf("\n");
                  });
    }
  });

  // --- Data connection: the bus streams itself as candump lines ------------
  const int data_fd = serve::connect_addr(serve_config.uds_path);
  send_all(data_fd, "HELLO bus\n");

  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 99);

  std::string chunk;
  bus.add_listener([&chunk](const can::TimedFrame& frame) {
    chunk += trace::to_candump_line(
        trace::LogRecord{frame.timestamp, "can0", frame.frame});
    chunk.push_back('\n');
  });

  // --- Schedule the attack phases (same timeline as ever) ------------------
  std::vector<TimelineEvent> timeline;

  attacks::AttackConfig single_config;
  single_config.frequency_hz = 100.0;
  single_config.start = 4 * util::kSecond;
  single_config.stop = 8 * util::kSecond;
  auto single = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                       vehicle, single_config, util::Rng(1));
  timeline.push_back({single_config.start,
                      "single-ID injection begins (ID " +
                          can::CanId::standard(single.planned_ids[0])
                              .to_string() + ", 100 Hz)"});
  timeline.push_back({single_config.stop, "single-ID injection ends"});
  attacks::attach_attack(bus, single);

  attacks::AttackConfig flood_config;
  flood_config.frequency_hz = 400.0;
  flood_config.start = 12 * util::kSecond;
  flood_config.stop = 15 * util::kSecond;
  auto flood = attacks::make_flooding_attack(flood_config, util::Rng(2));
  timeline.push_back({flood_config.start,
                      "flooding with changeable high-priority IDs (400 Hz)"});
  timeline.push_back({flood_config.stop, "flooding ends"});
  attacks::attach_attack(bus, flood);

  // --- Run the timeline, one simulated second per socket write -------------
  std::printf("=== live bus monitor (engine behind unix:%s) ===\n",
              serve_config.uds_path.c_str());
  std::sort(timeline.begin(), timeline.end(),
            [](const TimelineEvent& a, const TimelineEvent& b) {
              return a.at < b.at;
            });
  std::size_t next_event = 0;
  for (util::TimeNs t = util::kSecond; t <= 18 * util::kSecond;
       t += util::kSecond) {
    while (next_event < timeline.size() && timeline[next_event].at < t) {
      std::printf("%6.1fs  >>> %s\n",
                  util::to_seconds(timeline[next_event].at),
                  timeline[next_event].label.c_str());
      ++next_event;
    }
    bus.run_until(t);
    send_all(data_fd, chunk);
    chunk.clear();

    if (t == 9 * util::kSecond) {
      // Between the two attacks: hot-reload the bundle through the control
      // socket. The stream stays connected; its open window keeps counting.
      const std::string reply =
          control_command(serve_config.control_path, "RELOAD");
      std::printf("%6.1fs  >>> control RELOAD -> %s (stream undisturbed)\n",
                  util::to_seconds(t), reply.c_str());
    }
  }

  // Closing the data connection closes the stream; the final partial
  // window is still judged during the engine drain.
  ::close(data_fd);

  // Let the shard worker drain the stream before teardown so every alert
  // reaches the subscriber (after SHUTDOWN the server closes subscriber
  // connections; late alerts would only reach an --alerts-out file).
  for (int i = 0; i < 15000; ++i) {  // generous: sanitized builds are slow
    const std::vector<engine::StreamStatus> status = engine.status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  control_command(serve_config.control_path, "SHUTDOWN");
  server_thread.join();
  engine.finish();
  alert_thread.join();
  ::close(subscriber_fd);

  const ids::PipelineCounters& totals = engine.totals();
  const serve::ServeStats stats = server.stats();
  std::printf(
      "=== summary: %llu frames over the socket, %zu alerts received by the "
      "subscriber, %llu reloads, bus load %.0f%% ===\n",
      static_cast<unsigned long long>(totals.frames), alert_count.load(),
      static_cast<unsigned long long>(stats.reloads),
      bus.stats().load() * 100.0);

  std::error_code ignored;
  std::filesystem::remove(bundle_path, ignored);
  return 0;
}
