#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>

#include "engine/alert_sink.h"
#include "engine/spsc_queue.h"
#include "ids/bit_counters.h"
#include "ids/detector.h"
#include "ids/inference.h"
#include "serve/alert_json.h"
#include "serve/line_framing.h"
#include "serve/wire_framing.h"
#include "trace/binary_trace.h"
#include "trace/candump.h"

namespace perfbench {

namespace can = canids::can;
namespace ids = canids::ids;
namespace analysis = canids::analysis;

namespace {

constexpr std::size_t kBatch = 128;  // run_fleet's ingest batch
constexpr std::size_t kDrain = 256;  // FleetConfig::drain_batch default
constexpr std::size_t kQueueCapacity = 8192;
constexpr std::size_t kChunkBytes = 64 * 1024;

/// One batch at a time through the path's decoder.
class Decoder {
 public:
  Decoder(const std::string& bytes, LedgerPath path)
      : bytes_(bytes), buf_(bytes), in_(&buf_), path_(path) {
    if (path_ == LedgerPath::kFile) source_.emplace(in_);
  }

  /// Decode the next batch into `frames` (file) or `items` (wire).
  std::size_t next(std::vector<can::TimedFrame>& frames,
                   std::vector<can::TimedId>& items) {
    frames.clear();
    items.clear();
    if (path_ == LedgerPath::kFile) return source_->fill(frames, kBatch);
    const std::size_t want = kBatch * canids::trace::kBinaryRecordBytes;
    const std::size_t take = std::min(want, bytes_.size() - offset_);
    const std::size_t n = framer_.feed(bytes_.data() + offset_, take, items);
    offset_ += take;
    return n;
  }

 private:
  const std::string& bytes_;
  ViewBuf buf_;
  std::istream in_;
  LedgerPath path_;
  std::optional<canids::trace::BinaryTraceSource> source_;
  canids::serve::BinaryFramer framer_;
  std::size_t offset_ = 0;
};

/// run_fleet's hand-off: TimedFrame -> queue item conversion (file path),
/// one SPSC publish, one worker drain.
void queue_hop(canids::engine::SpscQueue<can::TimedId>& queue,
               const std::vector<can::TimedFrame>& frames,
               std::vector<can::TimedId>& items,
               std::vector<can::TimedId>& popped) {
  if (!frames.empty()) {
    items.clear();
    for (const can::TimedFrame& frame : frames) {
      items.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
    }
  }
  queue.try_push_batch(items.data(), items.size());
  popped.clear();
  queue.pop_batch(popped, kDrain);
}

class Tracer {
 public:
  int open(const char* name, int parent, std::int64_t window = -1) {
    spans_.push_back(Span{name, now_ns(), 0, parent, window});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end = now_ns(); }
  [[nodiscard]] std::vector<Span>& spans() noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// BitEntropyBackend's verdict rule: the decision variable is the bit whose
/// deviation is worst relative to its own threshold.
analysis::WindowVerdict verdict_of(const ids::WindowSnapshot& snap,
                                   const ids::DetectionResult& detection,
                                   const ids::InferenceResult* inference) {
  analysis::WindowVerdict verdict;
  verdict.start = snap.start;
  verdict.end = snap.end;
  verdict.frames = snap.frames;
  verdict.evaluated = detection.evaluated;
  verdict.alert = detection.alert;
  for (const ids::BitDeviation& bit : detection.bits) {
    const double lhs = bit.deviation * verdict.threshold;
    const double rhs = verdict.metric * bit.threshold;
    if (lhs > rhs || (lhs == rhs && bit.deviation > verdict.metric)) {
      verdict.metric = bit.deviation;
      verdict.threshold = bit.threshold;
    }
  }
  if (verdict.alert) {
    analysis::Alert detail;
    detail.alerted_bits = detection.alerted_bits;
    if (inference) detail.ranked_candidates = inference->ranked_candidates;
    verdict.detail = std::move(detail);
  }
  return verdict;
}

struct TracedRun {
  std::vector<Span> spans;
  std::vector<analysis::WindowVerdict> verdicts;
  std::uint64_t frames = 0;
  std::uint64_t infer_calls = 0;
  std::size_t json_bytes = 0;
};

TracedRun run_traced(const LedgerInput& input, const std::string& bytes) {
  const ids::WindowConfig& window_config = input.pipeline.window;
  const ids::Detector detector(input.golden, input.pipeline.detector);
  std::optional<ids::InferenceEngine> inference;
  if (input.pipeline.infer_on_alert && !input.id_pool.empty()) {
    inference.emplace(input.golden, input.id_pool, input.pipeline.inference);
  }
  Decoder decoder(bytes, input.path);
  canids::engine::SpscQueue<can::TimedId> queue(kQueueCapacity);
  std::vector<can::TimedFrame> frames;
  std::vector<can::TimedId> items;
  std::vector<can::TimedId> popped;
  std::vector<std::uint32_t> scratch;
  ids::PairCounters counters;
  canids::util::WindowClock clock(window_config.duration);
  TimeNs last_timestamp = 0;

  TracedRun run;
  Tracer tracer;
  std::int64_t window = 0;
  const auto judge = [&](int root, TimeNs start, TimeNs end) {
    const int span = tracer.open("window", root, window);
    int s = tracer.open("snapshot", span, window);
    ids::WindowSnapshot snap;
    snap.start = start;
    snap.end = end;
    snap.frames = counters.total();
    counters.marginals().snapshot_into(snap.probabilities, snap.entropies);
    if (window_config.track_pairs) {
      snap.pair_probabilities = counters.pair_probabilities();
    }
    tracer.close(s);
    s = tracer.open("evaluate", span, window);
    const ids::DetectionResult detection = detector.evaluate(snap);
    tracer.close(s);
    std::optional<ids::InferenceResult> inferred;
    if (detection.alert && inference) {
      s = tracer.open("infer", span, window);
      inferred = inference->infer(snap);
      tracer.close(s);
      ++run.infer_calls;
    }
    analysis::WindowVerdict verdict =
        verdict_of(snap, detection, inferred ? &*inferred : nullptr);
    if (verdict.alert) {
      s = tracer.open("json", span, window);
      const std::string line = canids::serve::to_json_line(
          canids::engine::FleetAlert{input.stream->key, verdict});
      tracer.close(s);
      run.json_bytes += line.size();
    }
    run.verdicts.push_back(std::move(verdict));
    tracer.close(span);
    ++window;
  };

  const int root = tracer.open("stream", -1);
  for (;;) {
    int s = tracer.open("decode", root);
    const std::size_t n = decoder.next(frames, items);
    tracer.close(s);
    if (n == 0) break;
    run.frames += n;
    s = tracer.open("queue", root);
    queue_hop(queue, frames, items, popped);
    tracer.close(s);
    // WindowAccumulator::add_batch's split: block-count each in-window run,
    // close a window when a frame reaches the boundary.
    std::size_t i = 0;
    while (i < popped.size()) {
      if (!clock.started()) clock.restart(popped[i].timestamp);
      s = tracer.open("count", root, window);
      const TimeNs boundary = clock.start() + window_config.duration;
      std::size_t j = i;
      while (j < popped.size() && popped[j].timestamp < boundary) ++j;
      if (j > i) {
        scratch.clear();
        for (std::size_t k = i; k < j; ++k) scratch.push_back(popped[k].id.raw());
        counters.add_batch(scratch.data(), scratch.size(),
                           window_config.track_pairs);
        last_timestamp = popped[j - 1].timestamp;
        i = j;
      }
      tracer.close(s);
      if (i < popped.size()) {
        if (const auto end = clock.advance(popped[i].timestamp)) {
          if (counters.total() > 0) judge(root, *end - window_config.duration, *end);
          counters.reset();
        }
        last_timestamp = popped[i].timestamp;
      }
    }
  }
  if (counters.total() > 0) judge(root, clock.start(), last_timestamp);
  tracer.close(root);
  run.spans = std::move(tracer.spans());
  return run;
}

struct UntracedRun {
  double total_ns = 0.0;
  std::vector<analysis::WindowVerdict> verdicts;
  std::size_t json_bytes = 0;
};

UntracedRun run_untraced(const LedgerInput& input, const std::string& bytes) {
  UntracedRun run;
  const std::unique_ptr<analysis::DetectorBackend> backend =
      input.prototype->clone_for_stream(input.id_pool);
  Decoder decoder(bytes, input.path);
  canids::engine::SpscQueue<can::TimedId> queue(kQueueCapacity);
  std::vector<can::TimedFrame> frames;
  std::vector<can::TimedId> items;
  std::vector<can::TimedId> popped;
  std::size_t rendered = 0;
  const auto render = [&] {
    for (; rendered < run.verdicts.size(); ++rendered) {
      if (!run.verdicts[rendered].alert) continue;
      const std::string line = canids::serve::to_json_line(
          canids::engine::FleetAlert{input.stream->key, run.verdicts[rendered]});
      run.json_bytes += line.size();
    }
  };
  const std::int64_t t0 = now_ns();
  while (decoder.next(frames, items) > 0) {
    queue_hop(queue, frames, items, popped);
    backend->on_frames(popped.data(), popped.size(), run.verdicts);
    render();
  }
  if (auto last = backend->finish()) run.verdicts.push_back(std::move(*last));
  render();
  run.total_ns = static_cast<double>(now_ns() - t0);
  return run;
}

double time_on_frames(const LedgerInput& input,
                      const std::vector<can::TimedId>& items) {
  const std::unique_ptr<analysis::DetectorBackend> backend =
      input.prototype->clone_for_stream(input.id_pool);
  std::vector<analysis::WindowVerdict> verdicts;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < items.size(); i += kDrain) {
    backend->on_frames(items.data() + i, std::min(kDrain, items.size() - i),
                       verdicts);
  }
  if (auto last = backend->finish()) verdicts.push_back(std::move(*last));
  return static_cast<double>(now_ns() - t0);
}

double time_file_decode(const std::string& file) {
  ViewBuf buf(file);
  std::istream in(&buf);
  canids::trace::BinaryTraceSource source(in);
  std::vector<can::TimedFrame> frames;
  const std::int64_t t0 = now_ns();
  for (;;) {
    frames.clear();
    if (source.fill(frames, kBatch) == 0) break;
  }
  return static_cast<double>(now_ns() - t0);
}

double time_candump_parse(const std::string& text) {
  ViewBuf buf(text);
  std::istream in(&buf);
  canids::trace::CandumpSource source(in);
  std::vector<can::TimedFrame> frames;
  const std::int64_t t0 = now_ns();
  for (;;) {
    frames.clear();
    if (source.fill(frames, kBatch) == 0) break;
  }
  return static_cast<double>(now_ns() - t0);
}

double time_binary_framer(const std::string& wire) {
  canids::serve::BinaryFramer framer;
  std::vector<can::TimedId> items;
  const std::int64_t t0 = now_ns();
  for (std::size_t off = 0; off < wire.size(); off += kChunkBytes) {
    items.clear();
    framer.feed(wire.data() + off, std::min(kChunkBytes, wire.size() - off),
                items);
  }
  return static_cast<double>(now_ns() - t0);
}

double time_line_framer(const std::string& text, std::uint64_t& lines) {
  canids::serve::LineFramer framer;
  lines = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t off = 0; off < text.size(); off += kChunkBytes) {
    framer.feed(text.data() + off, std::min(kChunkBytes, text.size() - off),
                [&lines](std::string_view) { ++lines; });
  }
  return static_cast<double>(now_ns() - t0);
}

/// Self time per span name: duration minus what its children cover.
std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end - span.start);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] +=
        static_cast<double>(spans[i].end - spans[i].start) - child[i];
  }
  return out;
}

}  // namespace

LedgerResult run_ledger(const LedgerInput& input) {
  LedgerResult result;
  const StreamInput& stream = *input.stream;
  const std::string file = encode_binary_file(stream);
  const std::string wire = encode_binary_wire(stream, nullptr);
  const std::string text = encode_candump_text(stream, nullptr);
  const std::string& path_bytes =
      input.path == LedgerPath::kFile ? file : wire;
  const std::vector<can::TimedId> items = stream.ids();

  std::map<std::string, std::vector<double>> stage_samples;
  std::vector<double> traced, untraced, on_frames, decode, parse, bin_framer,
      line_framer, stage_sums, coverages;
  for (int rep = 0; rep < std::max(1, input.repeats); ++rep) {
    const UntracedRun plain = run_untraced(input, path_bytes);
    untraced.push_back(plain.total_ns);
    TracedRun run = run_traced(input, path_bytes);
    const Span& root = run.spans.front();
    traced.push_back(static_cast<double>(root.end - root.start));
    const std::map<std::string, double> self = self_times(run.spans);
    double stage_sum = 0.0;
    for (const char* stage : kLedgerStages) {
      const auto found = self.find(stage);
      if (found != self.end()) stage_sum += found->second;
    }
    stage_sums.push_back(stage_sum);
    coverages.push_back(stage_sum / traced.back());
    for (const auto& [name, ns] : self) stage_samples[name].push_back(ns);
    on_frames.push_back(time_on_frames(input, items));
    decode.push_back(time_file_decode(file));
    parse.push_back(time_candump_parse(text));
    bin_framer.push_back(time_binary_framer(wire));
    std::uint64_t lines = 0;
    line_framer.push_back(time_line_framer(text, lines));

    if (result.mismatch.empty()) {
      if (run.verdicts != plain.verdicts ||
          run.json_bytes != plain.json_bytes) {
        result.mismatch =
            "traced chain verdicts differ from DetectorBackend::on_frames (" +
            std::to_string(run.verdicts.size()) + " vs " +
            std::to_string(plain.verdicts.size()) + " windows)";
      } else if (run.frames != stream.size() || lines != stream.size()) {
        result.mismatch = "traced chain decoded " +
                          std::to_string(run.frames) + " frames, " +
                          std::to_string(lines) + " lines of " +
                          std::to_string(stream.size());
      }
    }
    result.frames = run.frames;
    result.windows = run.verdicts.size();
    result.alerts = static_cast<std::uint64_t>(std::count_if(
        run.verdicts.begin(), run.verdicts.end(),
        [](const analysis::WindowVerdict& v) { return v.alert; }));
    result.infer_calls = run.infer_calls;
    result.spans = std::move(run.spans);
  }
  for (const auto& [name, samples] : stage_samples) {
    result.self_ns[name] = median(samples);
  }
  result.stage_sum_ns = median(stage_sums);
  result.coverage = median(coverages);
  result.traced_total_ns = median(traced);
  result.untraced_total_ns = median(untraced);
  result.on_frames_ns = median(on_frames);
  result.binary_decode_ns = median(decode);
  result.candump_parse_ns = median(parse);
  result.binary_framer_ns = median(bin_framer);
  result.line_framer_ns = median(line_framer);
  return result;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (const Span& span : spans) {
    out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start - origin << ", \"end_ns\": " << span.end - origin
        << ", \"parent\": " << span.parent << ", \"window\": " << span.window
        << "}\n";
  }
  return static_cast<bool>(out);
}

void report_ledger(const LedgerResult& ledger, const std::string& spans_path,
                   Result& result) {
  const auto per = [](double ns, std::uint64_t n) {
    return n == 0 ? 0.0 : ns / static_cast<double>(n);
  };
  const auto self = [&ledger](const char* stage) {
    const auto found = ledger.self_ns.find(stage);
    return found == ledger.self_ns.end() ? 0.0 : found->second;
  };
  result.set("trace.binary_decode_ns_per_frame",
             per(ledger.binary_decode_ns, ledger.frames));
  result.set("trace.candump_parse_ns_per_frame",
             per(ledger.candump_parse_ns, ledger.frames));
  result.set("serve.binary_framer_ns_per_frame",
             per(ledger.binary_framer_ns, ledger.frames));
  result.set("serve.line_framer_ns_per_frame",
             per(ledger.line_framer_ns, ledger.frames));
  result.set("engine.push_ns_per_frame", per(self("queue"), ledger.frames));
  result.set("ids.count_ns_per_frame", per(self("count"), ledger.frames));
  result.set("ids.snapshot_ns_per_window", per(self("snapshot"), ledger.windows));
  result.set("ids.evaluate_ns_per_window", per(self("evaluate"), ledger.windows));
  result.set("ids.infer_ms_per_alert", per(self("infer"), ledger.infer_calls) / 1e6);
  result.set("analysis.on_frames_ns_per_frame",
             per(ledger.on_frames_ns, ledger.frames));
  result.set("serve.to_json_ns_per_alert", per(self("json"), ledger.alerts));
  result.set("ledger.stage_sum_ns_per_frame", per(ledger.stage_sum_ns, ledger.frames));
  result.set("ledger.traced_total_ns_per_frame",
             per(ledger.traced_total_ns, ledger.frames));
  result.set("ledger.untraced_total_ns_per_frame",
             per(ledger.untraced_total_ns, ledger.frames));
  result.set("ledger.coverage", ledger.coverage);
  result.set("ledger.tracing_overhead", ledger.overhead());

  char line[512];
  std::snprintf(line, sizeof line,
                "ledger: %llu frames, %llu windows, %llu alerts; traced total "
                "%.3f ms vs untraced %.3f ms (overhead %.3fx of the untraced "
                "base); stage sum covers %.1f%% of the traced total "
                "(tolerance %.0f%%)",
                static_cast<unsigned long long>(ledger.frames),
                static_cast<unsigned long long>(ledger.windows),
                static_cast<unsigned long long>(ledger.alerts),
                ledger.traced_total_ns / 1e6, ledger.untraced_total_ns / 1e6,
                ledger.overhead(), 100.0 * ledger.coverage,
                100.0 * kLedgerCoverageTolerance);
  result.notes.emplace_back(line);
  std::string stages = "ledger self time per stage (ms):";
  for (const char* stage : kLedgerStages) {
    std::snprintf(line, sizeof line, " %s %.3f", stage, self(stage) / 1e6);
    stages += line;
  }
  std::snprintf(line, sizeof line, " | window %.3f, loop %.3f",
                self("window") / 1e6, self("stream") / 1e6);
  result.notes.push_back(stages + line);

  if (!ledger.mismatch.empty()) result.fail("ledger: " + ledger.mismatch);
  if (ledger.coverage < 1.0 - kLedgerCoverageTolerance) {
    result.fail("ledger: stage self times cover only " +
                std::to_string(100.0 * ledger.coverage) +
                "% of the traced total");
  }
  if (write_spans(spans_path, ledger.spans)) {
    result.notes.push_back("spans written to " + spans_path);
  } else {
    result.fail("could not write spans to " + spans_path);
  }
}

}  // namespace perfbench
