#include "trace/trace_source.h"

#include <algorithm>

#include "util/contracts.h"

namespace canids::trace {

std::size_t TraceSource::fill(std::vector<can::TimedFrame>& out,
                              std::size_t max) {
  std::size_t added = 0;
  while (added < max) {
    auto frame = next();
    if (!frame) break;
    out.push_back(std::move(*frame));
    ++added;
  }
  return added;
}

std::optional<can::TimedFrame> RecordSource::next() {
  if (auto record = next_record()) {
    return can::TimedFrame{record->timestamp, record->frame,
                           can::TimedFrame::kUnknownSource};
  }
  return std::nullopt;
}

Trace RecordSource::drain_records() {
  Trace trace;
  while (auto record = next_record()) {
    trace.push_back(std::move(*record));
  }
  return trace;
}

BusStreamSource::BusStreamSource(can::BusSimulator& bus, util::TimeNs duration,
                                 util::TimeNs chunk)
    : bus_(bus),
      buffer_(std::make_shared<std::deque<can::TimedFrame>>()),
      end_(bus.now() + duration),
      chunk_(chunk),
      simulated_(bus.now()) {
  CANIDS_EXPECTS(duration > 0);
  CANIDS_EXPECTS(chunk > 0);
  bus_.add_listener([buffer = buffer_](const can::TimedFrame& frame) {
    buffer->push_back(frame);
  });
}

std::optional<can::TimedFrame> BusStreamSource::next() {
  while (buffer_->empty() && simulated_ < end_) {
    simulated_ = std::min<util::TimeNs>(simulated_ + chunk_, end_);
    bus_.run_until(simulated_);
  }
  if (buffer_->empty()) return std::nullopt;
  can::TimedFrame frame = buffer_->front();
  buffer_->pop_front();
  return frame;
}

}  // namespace canids::trace
