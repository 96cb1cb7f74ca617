// campaign-grid: a fixed CampaignSpec — {bit-entropy, interval} x {single,
// multi4, suspend, replay} x 2 rates x 3 seeds — run by CampaignRunner on 3
// workers, closed loop, training included. Each repetition trains (the
// set-up), runs the grid, and renders the report; repetitions repeat for
// the requested seconds. The fourth core samples heap use while run()
// works; the thread that called run() only waits for the pool.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "ledger.h"
#include "metrics/experiment.h"
#include "workloads.h"

namespace perfbench {

namespace campaign = canids::campaign;

namespace {

constexpr int kWorkers = 3;
constexpr auto kHeapSampleEvery = std::chrono::milliseconds(10);
constexpr int kSeeds = 3;
constexpr int kMinReps = 3;
constexpr int kTraceReps = 2;
constexpr std::size_t kTracedTrials = 8;

campaign::CampaignSpec grid_spec(std::uint64_t seed, int seeds, int workers) {
  using canids::attacks::ScenarioKind;
  campaign::CampaignSpec spec;
  spec.name = "perfbench-grid";
  spec.detectors = {"bit-entropy", "interval"};
  spec.scenarios = {ScenarioKind::kSingle, ScenarioKind::kMulti4,
                    ScenarioKind::kSuspend, ScenarioKind::kReplay};
  spec.rates_hz = {100.0, 20.0};
  spec.seeds = seeds;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * canids::util::kSecond;
  spec.experiment.attack_duration = 6 * canids::util::kSecond;
  spec.experiment.seed = derive_seed(seed, 0xCA11);
  spec.workers = workers;
  return spec;
}

/// Every artifact `canids campaign --out` writes, rendered in memory.
std::string render(const campaign::CampaignReport& report) {
  std::ostringstream out;
  report.write_json(out);
  report.write_trials_csv(out);
  report.write_cells_csv(out);
  report.write_roc_csv(out);
  return out.str();
}

struct Rep {
  double train_s = 0.0;
  double run_s = 0.0;  ///< run() + rendering, training excluded
  std::size_t trials = 0;
  std::uint64_t frames = 0;
  double heap_mib = 0.0;  ///< peak heap in use above the start
  std::string artifacts;
  campaign::CampaignReport report;
};

Rep run_rep(const campaign::CampaignSpec& spec) {
  Rep rep;
  const double heap_base = heap_in_use_mib();
  double heap_peak = heap_base;
  campaign::CampaignRunner runner(spec);
  const std::int64_t t0 = now_ns();
  std::atomic<bool> done{false};
  std::exception_ptr error;
  std::thread caller([&] {
    try {
      rep.report = runner.run();
    } catch (...) {
      error = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    heap_peak = std::max(heap_peak, heap_in_use_mib());
    std::this_thread::sleep_for(kHeapSampleEvery);
  }
  caller.join();
  if (error) std::rethrow_exception(error);
  rep.heap_mib = heap_peak - heap_base;
  rep.artifacts = render(rep.report);
  const double total = static_cast<double>(now_ns() - t0) / 1e9;
  rep.train_s = runner.stats().train_seconds;
  rep.run_s = total - rep.train_s;
  rep.trials = runner.stats().trials;
  for (const canids::metrics::InstrumentedTrial& trial : rep.report.trials) {
    rep.frames += trial.counters.frames;
  }
  return rep;
}

}  // namespace

void run_campaign_workload(const Options& options, Result& result) {
  check_threads(kWorkers + 1, result);  // + the heap-sampling thread
  const campaign::CampaignSpec spec = grid_spec(options.seed, kSeeds, kWorkers);

  // Worker-count determinism on a slice of the grid (one seed), untimed.
  {
    const std::string one =
        render(campaign::CampaignRunner(grid_spec(options.seed, 1, 1)).run());
    const std::string many = render(
        campaign::CampaignRunner(grid_spec(options.seed, 1, kWorkers)).run());
    if (one != many) {
      result.fail("campaign report differs between 1 and " +
                  std::to_string(kWorkers) + " workers");
    }
  }

  std::vector<double> setup_s, rep_us, trial_rates, frame_rates, heap;
  std::string first;
  Rep last;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (i >= (options.trace ? kTraceReps : kMinReps) &&
        (options.trace || elapsed >= options.seconds)) {
      break;
    }
    last = run_rep(spec);
    heap.push_back(last.heap_mib);
    setup_s.push_back(last.train_s);
    rep_us.push_back(last.run_s * 1e6);
    trial_rates.push_back(static_cast<double>(last.trials) / last.run_s);
    frame_rates.push_back(static_cast<double>(last.frames) / last.run_s);
    result.attempted += last.trials;
    if (first.empty()) {
      first = last.artifacts;
    } else if (last.artifacts != first) {
      result.fail("campaign report changed between repetitions");
      break;
    }
  }

  Quality quality;
  double infer_hit_sum = 0.0;
  for (const canids::metrics::InstrumentedTrial& trial : last.report.trials) {
    quality.true_positive += trial.windows.true_positive;
    quality.false_positive += trial.windows.false_positive;
    quality.true_negative += trial.windows.true_negative;
    quality.false_negative += trial.windows.false_negative;
    quality.infer_windows += trial.inference_windows;
    infer_hit_sum += trial.inference_hit_sum;
  }
  // The report scores inference as the fraction of true ids ranked; round
  // to whole windows for the shared accuracy formula.
  quality.infer_hits = static_cast<std::uint64_t>(infer_hit_sum + 0.5);

  const Tail tail = supported_tail(rep_us, kTailPercentile);
  result.set("setup_s", median(setup_s));
  result.set("frames_per_s", median(frame_rates));
  result.set("latency_p50_us", percentile(rep_us, 50.0));
  result.set("latency_tail_us", tail.value);
  result.set("mem_peak_mb", median(heap));
  result.set("verdict_accuracy", quality.verdict_accuracy());
  result.set("trials_per_s", median(trial_rates));
  result.set("failed_frac", 0.0);
  result.set("detect_tpr", quality.tpr());
  result.set("detect_fpr", quality.fpr());
  result.set("infer_hit_frac",
             quality.infer_windows == 0
                 ? 0.0
                 : infer_hit_sum / static_cast<double>(quality.infer_windows));
  result.set("campaign.train_ms", median(setup_s) * 1e3);

  char line[256];
  std::snprintf(line, sizeof line,
                "%zu repetitions of %zu trials on %d workers; latency is the "
                "time to a complete report, tail at p%.2f of %zu samples%s",
                rep_us.size(), last.trials, kWorkers, tail.percentile,
                tail.samples,
                tail.supported ? "" : " (too few samples beyond p50)");
  result.notes.emplace_back(line);
  if (!options.trace) return;

  // Trial and report layers, driven directly.
  canids::metrics::ExperimentRunner runner(spec.experiment);
  campaign::CampaignRunner trainer(spec);
  runner.adopt_models(trainer.models());
  std::vector<canids::metrics::InstrumentedTrial> trials;
  const std::vector<campaign::TrialPlan> plan = spec.plan();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kTracedTrials && i < plan.size(); ++i) {
    trials.push_back(runner.run_instrumented_trial(
        plan[i].detector, plan[i].kind, plan[i].frequency_hz,
        plan[i].trial_seed));
  }
  result.set("metrics.trial_ms", static_cast<double>(now_ns() - t0) / 1e6 /
                                     static_cast<double>(trials.size()));
  const std::int64_t t1 = now_ns();
  const std::string artifacts = render(campaign::make_report(spec, last.report.trials));
  result.set("campaign.report_ms", static_cast<double>(now_ns() - t1) / 1e6);
  if (artifacts != first) result.fail("make_report re-render differs");

  // Bus simulation and the stage ledger on one attacked drive of the grid's
  // vehicle.
  const canids::trace::SyntheticVehicle vehicle(spec.experiment.vehicle);
  DriveSpec drive;
  drive.run_seed = derive_seed(options.seed, 0xD21E);
  drive.attack = canids::attacks::ScenarioKind::kMulti4;
  const std::int64_t t2 = now_ns();
  StreamInput stream;
  stream.key = "trial";
  stream.base = std::make_shared<const BaseDrive>(make_drive(vehicle, drive));
  result.set("can.bus_sim_ns_per_frame",
             static_cast<double>(now_ns() - t2) /
                 static_cast<double>(stream.base->frames.size()));

  canids::analysis::DetectorOptions detector;
  detector.golden = trainer.models().golden;
  detector.id_pool = vehicle.id_pool();
  detector.pipeline = spec.experiment.pipeline;
  const auto prototype = canids::analysis::make_detector("bit-entropy", detector);
  LedgerInput ledger_input;
  ledger_input.stream = &stream;
  ledger_input.golden = detector.golden;
  ledger_input.id_pool = detector.id_pool;
  ledger_input.pipeline = detector.pipeline;
  ledger_input.prototype = prototype.get();
  report_ledger(run_ledger(ledger_input), options.spans_path(), result);
}

}  // namespace perfbench
