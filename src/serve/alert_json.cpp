#include "serve/alert_json.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace canids::serve {

std::string to_json_line(const engine::FleetAlert& alert) {
  const analysis::WindowVerdict& v = alert.verdict;
  std::string out;
  out.reserve(160);
  out += "{\"stream\": ";
  util::append_json_string(out, alert.stream);
  out += ", \"start_ns\": " + std::to_string(v.start);
  out += ", \"end_ns\": " + std::to_string(v.end);
  out += ", \"frames\": " + std::to_string(v.frames);
  out += ", \"evaluated\": ";
  out += v.evaluated ? "true" : "false";
  out += ", \"alert\": ";
  out += v.alert ? "true" : "false";
  out += ", \"metric\": ";
  util::append_json_double(out, v.metric);
  out += ", \"threshold\": ";
  util::append_json_double(out, v.threshold);
  if (v.detail) {
    if (!v.detail->alerted_bits.empty()) {
      out += ", \"bits\": [";
      for (std::size_t i = 0; i < v.detail->alerted_bits.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(v.detail->alerted_bits[i]);
      }
      out += "]";
    }
    if (!v.detail->ranked_candidates.empty()) {
      out += ", \"candidates\": [";
      for (std::size_t i = 0; i < v.detail->ranked_candidates.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(v.detail->ranked_candidates[i]);
      }
      out += "]";
    }
    if (!v.detail->voters.empty()) {
      out += ", \"voters\": [";
      for (std::size_t i = 0; i < v.detail->voters.size(); ++i) {
        if (i > 0) out += ", ";
        util::append_json_string(out, v.detail->voters[i]);
      }
      out += "]";
    }
  }
  out += "}";
  return out;
}

engine::FleetAlert parse_json_line(std::string_view line) {
  try {
    const util::JsonValue root = util::parse_json(line);
    if (root.type != util::JsonValue::Type::kObject) {
      throw std::invalid_argument("expected an object");
    }
    engine::FleetAlert alert;
    analysis::WindowVerdict& v = alert.verdict;
    analysis::Alert detail;
    for (const auto& [key, value] : root.members) {
      if (key == "stream") {
        alert.stream = value.as<std::string>(key);
      } else if (key == "start_ns") {
        v.start = value.as<util::TimeNs>(key);
      } else if (key == "end_ns") {
        v.end = value.as<util::TimeNs>(key);
      } else if (key == "frames") {
        v.frames = value.as<std::uint64_t>(key);
      } else if (key == "evaluated") {
        v.evaluated = value.as<bool>(key);
      } else if (key == "alert") {
        v.alert = value.as<bool>(key);
      } else if (key == "metric") {
        v.metric = value.as<double>(key);
      } else if (key == "threshold") {
        v.threshold = value.as<double>(key);
      } else if (key == "bits") {
        detail.alerted_bits = value.as<std::vector<int>>(key);
      } else if (key == "candidates") {
        detail.ranked_candidates = value.as<std::vector<std::uint32_t>>(key);
      } else if (key == "voters") {
        detail.voters = value.as<std::vector<std::string>>(key);
      }
      // Other keys are ignored: forward compatibility.
    }
    // An alerting verdict always carries detail (possibly with all arrays
    // empty — e.g. symbol-entropy); detail arrays on a non-alerting line
    // are accepted and dropped, matching what the renderer can emit.
    if (v.alert) v.detail = std::move(detail);
    return alert;
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("alert JSONL: ") + e.what());
  }
}

}  // namespace canids::serve
