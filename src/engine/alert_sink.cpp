#include "engine/alert_sink.h"

namespace canids::engine {

void AlertSink::set_handler(std::function<void(const FleetAlert&)> handler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
}

void AlertSink::publish(FleetAlert alert) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (handler_) {
    handler_(alert);  // streaming mode: deliver, don't retain
  } else {
    alerts_.push_back(std::move(alert));
  }
}

std::vector<FleetAlert> AlertSink::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FleetAlert> out = std::move(alerts_);
  alerts_.clear();
  return out;
}

}  // namespace canids::engine
