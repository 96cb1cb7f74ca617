#include "telemetry/event_log.h"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/json.h"

namespace canids::telemetry {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

EventLog::Value::Value(std::string text)
    : kind_(Kind::kString), text_(std::move(text)) {}
EventLog::Value::Value(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
EventLog::Value::Value(std::uint64_t u) : kind_(Kind::kUint), uint_(u) {}

EventLog::EventLog(const std::string& path)
    : out_(path, std::ios::out | std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("event log: cannot open " + path);
  }
}

std::uint64_t EventLog::emit(std::string_view type,
                             std::initializer_list<Field> fields) {
  std::string line;
  line.reserve(96);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = seq_++;
  line += "{\"seq\":";
  line += std::to_string(seq);
  line += ",\"ts_ns\":";
  line += std::to_string(wall_now_ns());
  line += ",\"type\":";
  util::append_json_string(line, type);
  for (const Field& field : fields) {
    line.push_back(',');
    util::append_json_string(line, field.first);
    line.push_back(':');
    const Value& v = field.second;
    switch (v.kind_) {
      case Value::Kind::kString:
        util::append_json_string(line, v.text_);
        break;
      case Value::Kind::kInt:
        line += std::to_string(v.int_);
        break;
      case Value::Kind::kUint:
        line += std::to_string(v.uint_);
        break;
    }
  }
  line += "}\n";
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  return seq;
}

bool EventLog::ok() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !out_.fail();
}

void EventLog::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

}  // namespace canids::telemetry
