#include "engine/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/contracts.h"

namespace canids::engine {

/// All per-stream state lives here and is touched by exactly two threads:
/// the producer (queue push side, `closed`, `parse_errors`) and the owning
/// shard worker (queue pop side, backend, verdicts, `drained`).
struct FleetEngine::StreamState {
  StreamState(std::string key_in, int shard_in, std::size_t queue_capacity,
              BackpressurePolicy on_full_in,
              std::unique_ptr<analysis::DetectorBackend> backend_in)
      : key(std::move(key_in)),
        shard(shard_in),
        queue(queue_capacity),
        on_full(on_full_in),
        backend(std::move(backend_in)) {}

  std::string key;
  int shard;
  SpscQueue<FrameItem> queue;
  BackpressurePolicy on_full;
  std::atomic<bool> closed{false};
  std::atomic<bool> drained{false};  ///< worker sets: final window flushed
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> queue_dropped{0};
  /// Model generation this stream's backend was last rebound to; written
  /// by the opening thread before publication, then worker-only.
  std::uint64_t generation = 0;
  std::unique_ptr<analysis::DetectorBackend> backend;
  std::vector<analysis::WindowVerdict> verdicts;
  /// Cross-thread copy of backend->counters(), republished by the worker
  /// after every drained batch (the backend itself is worker-private).
  mutable std::mutex snapshot_mutex;
  ids::PipelineCounters snapshot;

  void publish_snapshot() {
    const std::lock_guard<std::mutex> lock(snapshot_mutex);
    snapshot = backend->counters();
  }

  [[nodiscard]] StreamStatus status() const {
    StreamStatus row;
    row.key = key;
    row.shard = shard;
    {
      const std::lock_guard<std::mutex> lock(snapshot_mutex);
      row.counters = snapshot;
    }
    row.counters.parse_errors += parse_errors.load(std::memory_order_relaxed);
    row.counters.queue_dropped +=
        queue_dropped.load(std::memory_order_relaxed);
    row.queue_depth = queue.size_approx();
    row.closed = closed.load(std::memory_order_acquire);
    row.drained = drained.load(std::memory_order_acquire);
    return row;
  }
};

void FleetEngine::Stream::push_batch(const FrameItem* items,
                                     std::size_t count) {
  if (state_->on_full == BackpressurePolicy::kDropNewest) {
    // One attempt: the prefix that fits goes in; the rest is the queue
    // telling us the consumer is behind, so it is dropped and counted
    // rather than stalling the producer.
    const std::size_t pushed = state_->queue.try_push_batch(items, count);
    if (pushed < count) {
      state_->queue_dropped.fetch_add(count - pushed,
                                      std::memory_order_relaxed);
    }
    return;
  }
  while (count > 0) {
    const std::size_t pushed = state_->queue.try_push_batch(items, count);
    items += pushed;
    count -= pushed;
    if (count > 0) std::this_thread::yield();
  }
}

void FleetEngine::Stream::record_parse_error() {
  state_->parse_errors.fetch_add(1, std::memory_order_relaxed);
}

void FleetEngine::Stream::close() {
  state_->closed.store(true, std::memory_order_release);
}

const std::string& FleetEngine::Stream::key() const noexcept {
  return state_->key;
}

std::uint64_t FleetEngine::Stream::queue_dropped() const noexcept {
  return state_->queue_dropped.load(std::memory_order_relaxed);
}

std::uint64_t FleetEngine::Stream::parse_errors() const noexcept {
  return state_->parse_errors.load(std::memory_order_relaxed);
}

FleetEngine::FleetEngine(std::unique_ptr<analysis::DetectorBackend> prototype,
                         FleetConfig config)
    : prototype_(std::move(prototype)), config_(config) {
  CANIDS_EXPECTS(prototype_ != nullptr);
  CANIDS_EXPECTS(config_.shards >= 0);
  // Loud, catchable validation (these come straight from CLI flags): the
  // SPSC ring indexes with a capacity mask, so reject anything that is not
  // a power of two instead of silently rounding or asserting.
  if (config_.queue_capacity == 0 ||
      (config_.queue_capacity & (config_.queue_capacity - 1)) != 0) {
    throw std::invalid_argument(
        "FleetConfig::queue_capacity must be a power of two, got " +
        std::to_string(config_.queue_capacity));
  }
  if (config_.drain_batch == 0) {
    throw std::invalid_argument("FleetConfig::drain_batch must be positive");
  }
  shard_count_ =
      config_.shards > 0
          ? config_.shards
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  shards_.reserve(static_cast<std::size_t>(shard_count_));
  for (int i = 0; i < shard_count_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (config_.metrics && config_.telemetry_sample > 0) {
    telemetry::MetricsRegistry& reg = *config_.metrics;
    hot_.scoring = &reg.histogram(
        "canids_scoring_batch_ns",
        "DetectorBackend::on_frames wall time per sampled drained batch.",
        telemetry::latency_bounds_ns());
    hot_.verdict_latency = &reg.histogram(
        "canids_verdict_latency_ns",
        "Drain-start to alert-fan-out latency of window verdicts in "
        "sampled batches.",
        telemetry::latency_bounds_ns());
    hot_.occupancy = &reg.histogram(
        "canids_queue_occupancy_frames",
        "Stream queue occupancy (drained batch + frames still queued) at "
        "sampled drains.",
        telemetry::pow2_bounds(21));
  }
}

FleetEngine::~FleetEngine() {
  if (started_.load(std::memory_order_acquire) && !finished_) {
    abort_.store(true, std::memory_order_release);
    for (std::unique_ptr<Shard>& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
}

int FleetEngine::shard_of(std::string_view key) const noexcept {
  return static_cast<int>(std::hash<std::string_view>{}(key) %
                          static_cast<std::size_t>(shard_count_));
}

FleetEngine::Stream FleetEngine::open_stream(
    std::string key, std::vector<std::uint32_t> id_pool) {
  CANIDS_EXPECTS(!finished_);
  CANIDS_EXPECTS(!key.empty());
  const int shard_index = shard_of(key);
  std::unique_ptr<StreamState> state_owner;
  {
    // Clone under the reload lock so the stream's backend and its recorded
    // generation are consistent (a concurrent reload_models either fully
    // precedes or fully follows this clone).
    const std::lock_guard<std::mutex> lock(reload_mutex_);
    state_owner = std::make_unique<StreamState>(
        std::move(key), shard_index, config_.queue_capacity, config_.on_full,
        prototype_->clone_for_stream(std::move(id_pool)));
    state_owner->generation = generation_.load(std::memory_order_acquire);
  }
  StreamState* state = state_owner.get();
  {
    const std::lock_guard<std::mutex> lock(streams_mutex_);
    streams_.push_back(std::move(state_owner));
    stream_count_.store(streams_.size(), std::memory_order_release);
  }
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  if (!started_.load(std::memory_order_acquire)) {
    shard.streams.push_back(state);
  } else {
    const std::lock_guard<std::mutex> lock(shard.incoming_mutex);
    shard.incoming.push_back(state);
    shard.has_incoming.store(true, std::memory_order_release);
  }
  if (config_.events) {
    config_.events->emit("stream_open", {{"stream", state->key},
                                         {"shard", shard_index},
                                         {"generation", state->generation}});
  }
  return Stream(state);
}

void FleetEngine::start() {
  CANIDS_EXPECTS(!started_.load(std::memory_order_acquire));
  started_.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
}

void FleetEngine::reload_models(model::StoredModels models) {
  {
    const std::lock_guard<std::mutex> lock(reload_mutex_);
    // The prototype is the validator: an incompatible model throws here and
    // neither the prototype nor any stream has changed.
    prototype_->rebind_models(models);
    reload_models_ = std::move(models);
    // Publish AFTER the models are in place: a worker that observes the new
    // generation takes reload_mutex_ before reading reload_models_.
    generation_.fetch_add(1, std::memory_order_release);
  }
  if (config_.events) {
    config_.events->emit("model_reload",
                         {{"generation", model_generation()}});
  }
}

std::vector<StreamStatus> FleetEngine::status() const {
  const std::lock_guard<std::mutex> lock(streams_mutex_);
  std::vector<StreamStatus> rows;
  rows.reserve(streams_.size());
  for (const std::unique_ptr<StreamState>& state : streams_) {
    rows.push_back(state->status());
  }
  return rows;
}

void FleetEngine::publish_metrics() {
  if (!config_.metrics) return;
  telemetry::MetricsRegistry& reg = *config_.metrics;
  ids::PipelineCounters totals;
  std::size_t depth = 0;
  std::uint64_t opened = 0;
  std::uint64_t drained = 0;
  for (const StreamStatus& row : status()) {
    totals += row.counters;
    depth += row.queue_depth;
    ++opened;
    if (row.drained) ++drained;
  }
  // fold (CAS max), not set: counters must stay monotonic even though the
  // per-stream snapshots they are recomputed from can transiently lag the
  // workers by one drain batch between scrapes.
  reg.counter("canids_frames_total",
              "Frames accepted into detector backends.")
      .fold(totals.frames);
  reg.counter("canids_windows_closed_total", "Detection windows closed.")
      .fold(totals.windows_closed);
  reg.counter("canids_windows_evaluated_total",
              "Closed windows that were judged (not calibration).")
      .fold(totals.windows_evaluated);
  reg.counter("canids_alerts_total", "Alerting window verdicts.")
      .fold(totals.alerts);
  reg.counter("canids_parse_errors_total",
              "Malformed capture/ingest lines skipped.")
      .fold(totals.parse_errors);
  reg.counter("canids_dropped_frames_total",
              "Frames outside the detector's scope (non-legal IDs).")
      .fold(totals.dropped_frames);
  reg.counter("canids_queue_dropped_total",
              "Frames discarded by drop-newest backpressure.")
      .fold(totals.queue_dropped);
  reg.counter("canids_streams_opened_total", "Streams ever opened.")
      .fold(opened);
  reg.counter("canids_streams_drained_total",
              "Streams fully drained and retired.")
      .fold(drained);
  reg.gauge("canids_streams_active",
            "Streams open and not yet drained.")
      .set(static_cast<std::int64_t>(opened - drained));
  reg.gauge("canids_queue_depth_frames",
            "Frames currently buffered across all stream queues.")
      .set(static_cast<std::int64_t>(depth));
  reg.gauge("canids_model_generation",
            "Completed hot-reload generations (0 = initial models).")
      .set(static_cast<std::int64_t>(model_generation()));
  reg.gauge("canids_shards", "Worker shards.").set(shard_count_);
}

void FleetEngine::handle_verdict(StreamState& stream,
                                 analysis::WindowVerdict verdict) {
  const bool alert = verdict.alert;
  if (config_.collect_verdicts) stream.verdicts.push_back(verdict);
  if (alert) alerts_.publish(FleetAlert{stream.key, std::move(verdict)});
}

void FleetEngine::worker_loop(Shard& shard) {
  std::vector<FrameItem> batch;
  batch.reserve(config_.drain_batch);
  std::vector<analysis::WindowVerdict> verdicts;

  // Latency sampling: time every Nth drained batch. With sampling off
  // (the default) the per-batch cost is one false branch — no clock
  // reads, no atomics — so verdict byte-identity and throughput hold.
  const std::size_t sample_every =
      hot_.scoring != nullptr ? config_.telemetry_sample : 0;
  std::size_t sample_tick = 0;

  auto feed = [&](StreamState& stream) {
    // One batched backend call per drained block — the block-counted hot
    // path; verdicts come back in close order, exactly as per-frame calls
    // would have produced them.
    verdicts.clear();
    std::int64_t t0 = 0;
    const bool sampled = sample_every != 0 && ++sample_tick >= sample_every;
    if (sampled) {
      sample_tick = 0;
      hot_.occupancy->observe(batch.size() + stream.queue.size_approx());
      t0 = telemetry::steady_now_ns();
    }
    stream.backend->on_frames(batch.data(), batch.size(), verdicts);
    if (sampled) {
      hot_.scoring->observe(
          static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0));
    }
    const std::size_t closed = verdicts.size();
    for (analysis::WindowVerdict& verdict : verdicts) {
      handle_verdict(stream, std::move(verdict));
    }
    if (sampled && closed > 0) {
      // Verdict latency = drain start to fan-out done, once per verdict
      // the batch closed (they all completed at the same instant).
      const auto elapsed =
          static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0);
      for (std::size_t v = 0; v < closed; ++v) {
        hot_.verdict_latency->observe(elapsed);
      }
    }
    stream.publish_snapshot();
  };

  // The worker's private rotation: drained streams leave it (their
  // StreamState stays behind for finish()/status()), dynamically opened
  // ones join it via the shard's incoming hand-off.
  std::vector<StreamState*> active = shard.streams;
  int idle = 0;
  while (!abort_.load(std::memory_order_acquire)) {
    if (shard.has_incoming.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(shard.incoming_mutex);
      active.insert(active.end(), shard.incoming.begin(),
                    shard.incoming.end());
      shard.incoming.clear();
      shard.has_incoming.store(false, std::memory_order_release);
    }
    bool progressed = false;
    const std::uint64_t generation =
        generation_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < active.size();) {
      StreamState* stream = active[i];
      if (stream->generation != generation) {
        // A reload happened: rebind this stream's backend in place between
        // drain batches (window state and queue survive; reload_models
        // already validated the models against the prototype).
        const std::lock_guard<std::mutex> lock(reload_mutex_);
        stream->backend->rebind_models(reload_models_);
        stream->generation = generation_.load(std::memory_order_acquire);
        progressed = true;
      }
      batch.clear();
      if (stream->queue.pop_batch(batch, config_.drain_batch) > 0) {
        feed(*stream);
        progressed = true;
        ++i;
        continue;
      }
      if (!stream->closed.load(std::memory_order_acquire)) {
        ++i;
        continue;
      }
      // `closed` is published after the producer's final push, so one more
      // pop after observing it catches any frames we raced past.
      if (stream->queue.pop_batch(batch, config_.drain_batch) > 0) {
        feed(*stream);
        progressed = true;
        ++i;
        continue;
      }
      // Flush the final (possibly partial) window — a mid-window
      // disconnect still gets judged — then retire the stream from the
      // rotation.
      if (auto verdict = stream->backend->finish()) {
        handle_verdict(*stream, std::move(*verdict));
      }
      stream->publish_snapshot();
      stream->drained.store(true, std::memory_order_release);
      if (config_.events) {
        const ids::PipelineCounters& done = stream->backend->counters();
        config_.events->emit("stream_drained",
                             {{"stream", stream->key},
                              {"frames", done.frames},
                              {"alerts", done.alerts}});
      }
      active[i] = active.back();
      active.pop_back();
      progressed = true;
    }
    if (progressed) {
      idle = 0;
      continue;
    }
    if (active.empty() && stopping_.load(std::memory_order_acquire) &&
        !shard.has_incoming.load(std::memory_order_acquire)) {
      return;
    }
    // Adaptive idle: spin-yield briefly (latency), then sleep (a resident
    // daemon's workers must not busy-burn a core per shard while the bus
    // is quiet).
    if (++idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

std::vector<StreamResult> FleetEngine::finish() {
  CANIDS_EXPECTS(started_.load(std::memory_order_acquire));
  CANIDS_EXPECTS(!finished_);
  stopping_.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  finished_ = true;

  std::vector<StreamResult> results;
  results.reserve(streams_.size());
  totals_ = ids::PipelineCounters{};
  for (std::unique_ptr<StreamState>& state : streams_) {
    StreamResult result;
    result.key = state->key;
    result.shard = state->shard;
    result.counters = state->backend->counters();
    result.counters.parse_errors +=
        state->parse_errors.load(std::memory_order_relaxed);
    result.counters.queue_dropped +=
        state->queue_dropped.load(std::memory_order_relaxed);
    result.verdicts = std::move(state->verdicts);
    totals_ += result.counters;
    results.push_back(std::move(result));
  }
  return results;
}

/// Frames a pump accumulates before one batched queue publish.
constexpr std::size_t kIngestBatch = 128;

FleetRunResult run_fleet(FleetEngine& engine,
                         std::vector<NamedSource> sources,
                         int producer_threads) {
  std::vector<FleetEngine::Stream> streams;
  streams.reserve(sources.size());
  for (NamedSource& named : sources) {
    streams.push_back(
        engine.open_stream(named.key, std::move(named.id_pool)));
  }
  engine.start();

  FleetRunResult result;
  std::mutex error_mutex;
  std::atomic<std::size_t> next{0};
  // Ingest-side latency sampling, same knob as the shard workers.
  telemetry::Histogram* fill_hist = nullptr;
  const std::size_t fill_sample = engine.config().telemetry_sample;
  if (engine.config().metrics && fill_sample > 0) {
    fill_hist = &engine.config().metrics->histogram(
        "canids_ingest_fill_ns",
        "TraceSource::fill wall time per sampled ingest batch.",
        telemetry::latency_bounds_ns());
  }
  auto pump = [&] {
    std::size_t fill_tick = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sources.size()) break;
      FleetEngine::Stream stream = streams[i];
      std::vector<can::TimedFrame> frames;
      frames.reserve(kIngestBatch);
      std::vector<FleetEngine::FrameItem> batch;
      batch.reserve(kIngestBatch);
      trace::TraceSource& source = *sources[i].source;
      for (;;) {
        frames.clear();
        bool parse_error = false;
        bool fatal = false;
        const bool sampled =
            fill_hist != nullptr && ++fill_tick >= fill_sample;
        std::int64_t t0 = 0;
        if (sampled) {
          fill_tick = 0;
          t0 = telemetry::steady_now_ns();
        }
        try {
          source.fill(frames, kIngestBatch);
          if (sampled) {
            fill_hist->observe(
                static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0));
          }
        } catch (const trace::ParseError&) {
          // A malformed line: the parser consumed it, frames decoded
          // before it are already in `frames`, and the source recovers on
          // the next call. Count it and keep going.
          parse_error = true;
          stream.record_parse_error();
        } catch (const std::exception& e) {
          // Anything else (I/O failure, binary-trace corruption) is fatal
          // for this stream; frames pushed so far are kept.
          fatal = true;
          const std::lock_guard<std::mutex> lock(error_mutex);
          result.errors.emplace_back(stream.key(), e.what());
        }
        if (!frames.empty()) {
          batch.clear();
          for (const can::TimedFrame& frame : frames) {
            batch.push_back(
                FleetEngine::FrameItem{frame.timestamp, frame.frame.id()});
          }
          stream.push_batch(batch.data(), batch.size());
        }
        if (fatal) break;
        // An empty batch without a parse error is end of stream (a parse
        // error can legitimately yield zero frames and must not end it).
        if (frames.empty() && !parse_error) break;
      }
      stream.close();
    }
  };

  const std::size_t want =
      producer_threads > 0 ? static_cast<std::size_t>(producer_threads)
                           : static_cast<std::size_t>(engine.shards());
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(want, sources.size()));
  std::vector<std::thread> pumps;
  pumps.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pumps.emplace_back(pump);
  pump();
  for (std::thread& thread : pumps) thread.join();

  result.streams = engine.finish();
  return result;
}

}  // namespace canids::engine
