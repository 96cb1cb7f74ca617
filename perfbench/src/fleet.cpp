// fleet-clean / fleet-attacked: 16 vehicle streams fed as in-memory canidsBT
// through BinaryTraceSource into run_fleet on 2 shards with 2 producers,
// closed loop, flat out. Each pass builds the system from the model bundle
// and runs the whole fleet once; passes repeat for the requested seconds.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <istream>
#include <map>
#include <mutex>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ledger.h"
#include "model/store.h"
#include "trace/binary_trace.h"
#include "workloads.h"

namespace perfbench {

namespace can = canids::can;
namespace analysis = canids::analysis;
namespace engine = canids::engine;

namespace {

constexpr int kStreams = 16;
constexpr int kShards = 2;
constexpr int kProducers = 2;
constexpr TimeNs kDrive = 20 * canids::util::kSecond;
/// Repetitions of each 20 s drive per stream: fleet-clean streams are long
/// enough for steady state; fleet-attacked passes are bounded by inference
/// cost, so its streams are shorter (its attacked streams are one 60 s
/// drive each, attacked over the middle 80%).
constexpr int kCleanReps = 12;
constexpr int kAttackedFleetReps = 3;
constexpr int kAttackedEvery = 4;  // veh-0, veh-4, veh-8, veh-12
constexpr std::uint64_t kAttackSeed = 0xA77AC;
constexpr int kMinPasses = 3;
constexpr int kTracePasses = 3;

// ---- observation from outside the engine ------------------------------------

/// Shared by the sources of one pass: spots the last end of stream, where
/// the steady-state interval ends.
struct PassProbe {
  engine::FleetEngine* engine = nullptr;
  std::atomic<int> open_sources{0};
  std::int64_t last_push_ns = 0;
  std::uint64_t judged_at_last_push = 0;
  bool sample_queues = false;
  std::mutex depth_mutex;
  std::vector<double> queue_depths;
  std::mutex heap_mutex;
  double heap_peak_mib = 0.0;

  void sample_heap() {
    const double in_use = heap_in_use_mib();
    const std::lock_guard<std::mutex> lock(heap_mutex);
    heap_peak_mib = std::max(heap_peak_mib, in_use);
  }
};

/// What one source saw: its fill() calls, as (frames so far, exit time).
struct SourceProbe {
  std::int64_t first_fill_ns = -1;
  std::int64_t eof_ns = -1;
  std::int64_t push_ns = 0;  ///< between a fill's exit and the next entry
  std::vector<std::pair<std::size_t, std::int64_t>> batches;
};

/// BinaryTraceSource over in-memory canidsBT bytes, timing every fill from
/// the caller's side (run_fleet converts and push_batch()es between fills).
class ProbeSource final : public canids::trace::TraceSource {
 public:
  ProbeSource(const std::string& bytes, PassProbe& pass, SourceProbe& probe)
      : buf_(bytes), in_(&buf_), source_(in_), pass_(pass), probe_(probe) {}

  std::optional<can::TimedFrame> next() override { return source_.next(); }

  std::size_t fill(std::vector<can::TimedFrame>& out,
                   std::size_t max) override {
    const std::int64_t entry = now_ns();
    if (probe_.first_fill_ns < 0) {
      probe_.first_fill_ns = entry;
    } else {
      probe_.push_ns += entry - last_exit_;
    }
    const std::size_t n = source_.fill(out, max);
    last_exit_ = now_ns();
    if (n > 0) {
      frames_ += n;
      probe_.batches.emplace_back(frames_, last_exit_);
      ++fills_;
      if (pass_.sample_queues && fills_ % 64 == 0) sample_queues();
      if (fills_ % 512 == 0) pass_.sample_heap();
    } else if (probe_.eof_ns < 0) {
      probe_.eof_ns = entry;
      if (pass_.open_sources.fetch_sub(1) == 1) {
        // The last producer hit its end: everything is pushed.
        pass_.last_push_ns = entry;
        for (const engine::StreamStatus& row : pass_.engine->status()) {
          pass_.judged_at_last_push +=
              row.counters.frames - row.counters.dropped_frames;
        }
      }
    }
    return n;
  }

 private:
  void sample_queues() {
    const std::vector<engine::StreamStatus> rows = pass_.engine->status();
    const std::lock_guard<std::mutex> lock(pass_.depth_mutex);
    for (const engine::StreamStatus& row : rows) {
      pass_.queue_depths.push_back(static_cast<double>(row.queue_depth));
    }
  }

  ViewBuf buf_;
  std::istream in_;
  canids::trace::BinaryTraceSource source_;
  PassProbe& pass_;
  SourceProbe& probe_;
  std::size_t frames_ = 0;
  std::size_t fills_ = 0;
  std::int64_t last_exit_ = 0;
};

/// Per-stream record of when each alert left the backend.
struct VerdictLog {
  struct Entry {
    TimeNs start;
    TimeNs end;
    std::int64_t at_ns;
  };
  std::vector<Entry> entries;
  std::int64_t busy_ns = 0;  ///< time inside on_frames (trace runs only)
};

struct LogBook {
  std::mutex mutex;
  std::vector<std::unique_ptr<VerdictLog>> logs;  ///< clone (= open) order
  bool time_busy = false;

  VerdictLog* add() {
    const std::lock_guard<std::mutex> lock(mutex);
    logs.push_back(std::make_unique<VerdictLog>());
    return logs.back().get();
  }
};

/// Pass-through DetectorBackend that timestamps every alert as it leaves
/// the wrapped backend — the one observation point for closed-loop alert
/// latency (and, in trace runs, shard busy time) outside src/. Clones wrap
/// clones, one log per stream.
class ClockedBackend final : public analysis::DetectorBackend {
 public:
  ClockedBackend(std::unique_ptr<analysis::DetectorBackend> inner,
                 std::shared_ptr<LogBook> book, VerdictLog* log)
      : inner_(std::move(inner)), book_(std::move(book)), log_(log) {}

  analysis::TrainableBackend* trainable() noexcept override {
    return inner_->trainable();
  }
  std::optional<analysis::WindowVerdict> on_frame(
      TimeNs timestamp, const can::CanId& id) override {
    auto verdict = inner_->on_frame(timestamp, id);
    if (verdict && log_) note(*verdict, now_ns());
    return verdict;
  }
  void on_frames(const can::TimedId* frames, std::size_t count,
                 std::vector<analysis::WindowVerdict>& out) override {
    const std::size_t before = out.size();
    const std::int64_t t0 = book_->time_busy ? now_ns() : 0;
    inner_->on_frames(frames, count, out);
    if (!log_) return;
    if (out.size() == before && !book_->time_busy) return;
    const std::int64_t t1 = now_ns();
    if (book_->time_busy) log_->busy_ns += t1 - t0;
    for (std::size_t i = before; i < out.size(); ++i) note(out[i], t1);
  }
  void rebind_models(const analysis::ModelRefs& models) override {
    inner_->rebind_models(models);
  }
  std::optional<analysis::WindowVerdict> finish() override {
    auto verdict = inner_->finish();
    if (verdict && log_) note(*verdict, now_ns());
    return verdict;
  }
  [[nodiscard]] const canids::ids::PipelineCounters& counters() const override {
    return inner_->counters();
  }
  [[nodiscard]] analysis::DetectorInfo describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool) const override {
    return std::make_unique<ClockedBackend>(
        inner_->clone_for_stream(std::move(id_pool)), book_, book_->add());
  }

 private:
  void note(const analysis::WindowVerdict& verdict, std::int64_t at) {
    if (verdict.alert) {
      log_->entries.push_back(VerdictLog::Entry{verdict.start, verdict.end, at});
    }
  }

  std::unique_ptr<analysis::DetectorBackend> inner_;
  std::shared_ptr<LogBook> book_;
  VerdictLog* log_;
};

// ---- inputs -----------------------------------------------------------------

struct FleetInput {
  std::vector<StreamInput> streams;
  std::vector<std::string> files;  ///< canidsBT image per stream
  std::vector<std::uint32_t> id_pool;
  double bus_sim_ns_per_frame = 0.0;
};

FleetInput generate(std::uint64_t seed, bool attacked) {
  FleetInput input;
  const canids::trace::SyntheticVehicle vehicle;
  input.id_pool = vehicle.id_pool();
  std::uint64_t simulated = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kStreams; ++i) {
    DriveSpec spec;
    spec.run_seed = derive_seed(seed, static_cast<std::uint64_t>(i));
    spec.behavior = canids::trace::kAllBehaviors[static_cast<std::size_t>(i) %
                                                 canids::trace::kAllBehaviors.size()];
    spec.duration = kDrive;
    StreamInput stream;
    stream.key = "veh-" + std::to_string(i);
    stream.reps = attacked ? kAttackedFleetReps : kCleanReps;
    if (attacked && i % kAttackedEvery == 0) {
      spec.attack = (i / kAttackedEvery) % 2 == 0
                        ? canids::attacks::ScenarioKind::kMulti4
                        : canids::attacks::ScenarioKind::kFuzzing;
      // The attackers are the same in every seed: inference cost depends
      // on the injected ids, and seeds should vary the traffic, not the
      // amount of work an alert costs.
      spec.attack_seed = derive_seed(kAttackSeed, static_cast<std::uint64_t>(i));
      // One long drive instead of repetitions: a seed's alerting windows
      // are then many distinct windows, so its inference cost is typical.
      spec.duration = kDrive * kAttackedFleetReps;
      spec.attack_from = 0.1;
      spec.attack_to = 0.9;
      stream.reps = 1;
    }
    stream.base = std::make_shared<const BaseDrive>(make_drive(vehicle, spec));
    simulated += stream.base->frames.size();
    input.streams.push_back(std::move(stream));
  }
  input.bus_sim_ns_per_frame =
      static_cast<double>(now_ns() - t0) / static_cast<double>(simulated);
  for (const StreamInput& stream : input.streams) {
    input.files.push_back(encode_binary_file(stream));
  }
  return input;
}

// ---- one pass ---------------------------------------------------------------

struct PassOutcome {
  double setup_ns = 0.0;
  double bundle_load_ns = 0.0;
  double engine_setup_ns = 0.0;
  double frames_per_s = 0.0;
  double push_blocked_frac = 0.0;
  double busy_ns = 0.0;
  double shard_skew = 0.0;
  /// First frame offered to the complete result: every stream drained and
  /// its final window judged.
  double job_us = 0.0;
  /// Peak heap in use during the pass above its start.
  double heap_mib = 0.0;
  std::vector<double> alert_latency_us;
  std::vector<double> queue_depths;
  Accounting accounting;
};

PassOutcome run_pass(const FleetInput& input, const std::string& bundle,
                     const std::vector<StreamReference>& reference, bool trace,
                     Result& result) {
  PassOutcome out;
  const double heap_base = heap_in_use_mib();
  const std::int64_t t0 = now_ns();
  const canids::model::StoredModels models =
      canids::model::load_models_file(bundle);
  const std::int64_t t_loaded = now_ns();
  analysis::DetectorOptions options;
  options.golden = models.golden;
  options.id_pool = input.id_pool;
  auto book = std::make_shared<LogBook>();
  book->time_busy = trace;
  engine::FleetConfig config;
  config.shards = kShards;
  engine::FleetEngine fleet(
      std::make_unique<ClockedBackend>(
          analysis::make_detector("bit-entropy", options), book, nullptr),
      config);
  const std::int64_t t_built = now_ns();

  PassProbe pass;
  pass.engine = &fleet;
  pass.open_sources = kStreams;
  pass.sample_queues = trace;
  std::vector<SourceProbe> probes(input.streams.size());
  std::vector<engine::NamedSource> sources;
  for (std::size_t i = 0; i < input.streams.size(); ++i) {
    sources.push_back(engine::NamedSource{
        input.streams[i].key,
        std::make_unique<ProbeSource>(input.files[i], pass, probes[i]),
        input.id_pool});
  }
  const engine::FleetRunResult run =
      engine::run_fleet(fleet, std::move(sources), kProducers);
  const std::int64_t t_done = now_ns();
  pass.sample_heap();
  out.heap_mib = pass.heap_peak_mib - heap_base;

  std::int64_t first_fill = INT64_MAX;
  double producer_ns = 0.0;
  double push_ns = 0.0;
  for (const SourceProbe& probe : probes) {
    first_fill = std::min(first_fill, probe.first_fill_ns);
    producer_ns += static_cast<double>(probe.eof_ns - probe.first_fill_ns);
    push_ns += static_cast<double>(probe.push_ns);
  }
  out.setup_ns = static_cast<double>(first_fill - t0);
  out.bundle_load_ns = static_cast<double>(t_loaded - t0);
  out.engine_setup_ns = static_cast<double>(first_fill - t_built);
  out.job_us = static_cast<double>(t_done - first_fill) / 1e3;
  out.frames_per_s = static_cast<double>(pass.judged_at_last_push) /
                     (static_cast<double>(pass.last_push_ns - first_fill) / 1e9);
  out.push_blocked_frac = producer_ns > 0.0 ? push_ns / producer_ns : 0.0;
  out.queue_depths = std::move(pass.queue_depths);

  for (const auto& [key, error] : run.errors) {
    result.fail("stream " + key + ": " + error);
  }
  // Alerts per stream, in publication (= stream) order.
  std::map<std::string, std::vector<analysis::WindowVerdict>> alerts;
  for (engine::FleetAlert& alert : fleet.alerts().take()) {
    alerts[alert.stream].push_back(std::move(alert.verdict));
  }
  std::vector<double> shard_frames(kShards, 0.0), shard_alerts(kShards, 0.0);
  for (std::size_t i = 0; i < input.streams.size(); ++i) {
    const StreamInput& stream = input.streams[i];
    const engine::StreamResult& row = run.streams[i];
    const Accounting acc = accounting_of(stream.size(), row.counters);
    out.accounting += acc;
    if (!acc.holds()) result.fail(stream.key + ": accounting identity broken");
    const std::string diff =
        compare_alerts(reference[i].alerts(), alerts[stream.key]);
    if (!diff.empty() && acc.failed() == 0) {
      result.fail(stream.key + ": " + diff);
    }
    shard_frames[static_cast<std::size_t>(row.shard)] +=
        static_cast<double>(acc.judged);
    shard_alerts[static_cast<std::size_t>(row.shard)] +=
        static_cast<double>(row.counters.alerts);

    // Closed-loop alert latency: the closing frame's hand-off (its fill
    // returned, so push_batch is next) to the alert leaving the backend.
    const VerdictLog& log = *book->logs[i];
    out.busy_ns += static_cast<double>(log.busy_ns);
    const std::vector<std::pair<std::size_t, std::int64_t>>& batches =
        probes[i].batches;
    for (const VerdictLog::Entry& entry : log.entries) {
      const auto k = stream.closing_frame(entry.start, entry.end,
                                          canids::util::kSecond);
      if (!k) continue;
      const auto batch = std::upper_bound(
          batches.begin(), batches.end(), *k,
          [](std::size_t index, const auto& b) { return index < b.first; });
      if (batch == batches.end()) continue;
      out.alert_latency_us.push_back(
          static_cast<double>(entry.at_ns - batch->second) / 1e3);
    }
  }
  out.shard_skew = std::max(shard_skew(shard_frames), shard_skew(shard_alerts));
  return out;
}

}  // namespace

void run_fleet_workload(const Options& options, bool attacked, Result& result) {
  check_threads(kShards + kProducers, result);
  const FleetInput input = generate(options.seed, attacked);
  const std::string bundle = options.scratch + "/models.bundle";
  const auto golden = train_golden();
  write_bundle(bundle, golden);

  // The sequential reference, once, untimed.
  analysis::DetectorOptions ref_options;
  ref_options.golden = golden;
  ref_options.id_pool = input.id_pool;
  const std::unique_ptr<analysis::DetectorBackend> prototype =
      analysis::make_detector("bit-entropy", ref_options);
  std::vector<StreamReference> reference;
  Quality quality;
  std::uint64_t ref_alerts = 0, ref_windows = 0, offered = 0;
  for (const StreamInput& stream : input.streams) {
    reference.push_back(run_reference(*prototype, input.id_pool, stream.ids()));
    quality.score(stream, reference.back().verdicts);
    ref_alerts += reference.back().counters.alerts;
    ref_windows += reference.back().counters.windows_evaluated;
    offered += stream.size();
  }

  std::vector<double> setup_s, rates, latency, alert_latency, depths,
      bundle_ms, engine_ms, blocked, busy, skew, heap;
  Accounting total;
  const std::int64_t start = now_ns();
  for (int pass = 0;; ++pass) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (pass >= (options.trace ? kTracePasses : kMinPasses) &&
        (options.trace || elapsed >= options.seconds)) {
      break;
    }
    PassOutcome out = run_pass(input, bundle, reference, options.trace, result);
    heap.push_back(out.heap_mib);
    setup_s.push_back(out.setup_ns / 1e9);
    rates.push_back(out.frames_per_s);
    latency.push_back(out.job_us);
    alert_latency.insert(alert_latency.end(), out.alert_latency_us.begin(),
                         out.alert_latency_us.end());
    depths.insert(depths.end(), out.queue_depths.begin(), out.queue_depths.end());
    bundle_ms.push_back(out.bundle_load_ns / 1e6);
    engine_ms.push_back(out.engine_setup_ns / 1e6);
    blocked.push_back(out.push_blocked_frac);
    busy.push_back(out.busy_ns);
    skew.push_back(out.shard_skew);
    total += out.accounting;
    if (!result.correct) break;
  }

  result.attempted = total.offered;
  result.failed = total.failed();
  const Tail tail = supported_tail(latency, kTailPercentile);
  result.set("setup_s", median(setup_s));
  result.set("frames_per_s", median(rates));
  result.set("latency_p50_us", percentile(latency, 50.0));
  result.set("latency_tail_us", tail.value);
  result.set("mem_peak_mb", median(heap));
  result.set("verdict_accuracy", quality.verdict_accuracy());

  char line[256];
  std::snprintf(line, sizeof line,
                "%zu passes of %d streams (%llu frames each pass); latency is "
                "the time to a pass's complete result, tail at p%.2f of %zu "
                "passes%s",
                rates.size(), kStreams, static_cast<unsigned long long>(offered),
                tail.percentile, tail.samples,
                tail.supported ? "" : " (too few samples beyond p50)");
  result.notes.emplace_back(line);

  const Tail alert_tail = supported_tail(alert_latency);
  result.set("alert_latency_p50_us", percentile(alert_latency, 50.0));
  result.set("alert_latency_p99_us", alert_tail.value);
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
  if (!options.trace) return;

  result.set("engine.push_blocked_frac", median(blocked));
  result.set("engine.queue_depth_p99", percentile(depths, 99.0));
  result.set("engine.shard_skew", median(skew));
  result.set("engine.setup_ms", median(engine_ms));
  result.set("model.bundle_load_ms", median(bundle_ms));
  {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kStreams; ++i) {
      const auto clone = prototype->clone_for_stream(input.id_pool);
    }
    result.set("model.clone_ms_per_stream",
               static_cast<double>(now_ns() - t0) / 1e6 / kStreams);
  }

  LedgerInput ledger_input;
  ledger_input.stream = &input.streams.front();
  ledger_input.path = LedgerPath::kFile;
  ledger_input.golden = golden;
  ledger_input.id_pool = input.id_pool;
  ledger_input.prototype = prototype.get();
  ledger_input.repeats = attacked ? 3 : 5;
  const LedgerResult ledger = run_ledger(ledger_input);
  report_ledger(ledger, options.spans_path(), result);
  const double infer_ms = result.values["ids.infer_ms_per_alert"];
  const double busy_ms = median(busy) / 1e6;
  result.set("ids.infer_share_of_busy",
             busy_ms > 0.0 ? static_cast<double>(ref_alerts) * infer_ms / busy_ms
                           : 0.0);
  std::snprintf(line, sizeof line,
                "shard busy %.1f ms per pass; %llu inference calls x %.3f ms "
                "= %.1f ms of it",
                busy_ms, static_cast<unsigned long long>(ref_alerts), infer_ms,
                static_cast<double>(ref_alerts) * infer_ms);
  result.notes.emplace_back(line);
}

}  // namespace perfbench
