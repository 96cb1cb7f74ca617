#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace canids::telemetry {

namespace {

[[nodiscard]] bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

[[nodiscard]] bool valid_label_name(std::string_view name) {
  // Label names share the metric charset minus ':'.
  return valid_metric_name(name) && name.find(':') == std::string_view::npos;
}

}  // namespace

std::uint64_t HistogramSnapshot::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (bounds != other.bounds || counts.size() != other.counts.size()) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: bucket bounds differ");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  sum += other.sum;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank, 1-based: the smallest value v such that at least
  // ceil(q * total) observations are <= v.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cumulative + counts[i] < rank) {
      cumulative += counts[i];
      continue;
    }
    if (i >= bounds.size()) {
      // Overflow bucket: no finite upper bound — report its lower edge.
      return bounds.empty() ? 0.0
                            : static_cast<double>(bounds.back());
    }
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double upper = static_cast<double>(bounds[i]);
    const double into =
        static_cast<double>(rank - cumulative) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * into;
  }
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

std::size_t Histogram::bucket_index(std::uint64_t value) const noexcept {
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<std::uint64_t> latency_bounds_ns() {
  // 1-2.5-5 per decade, 1 µs .. 1 s. Integer nanoseconds throughout.
  return {1'000,        2'500,        5'000,        10'000,
          25'000,       50'000,       100'000,      250'000,
          500'000,      1'000'000,    2'500'000,    5'000'000,
          10'000'000,   25'000'000,   50'000'000,   100'000'000,
          250'000'000,  500'000'000,  1'000'000'000};
}

std::vector<std::uint64_t> pow2_bounds(int count) {
  if (count < 1 || count > 63) {
    throw std::invalid_argument("pow2_bounds: count must be in [1, 63]");
  }
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) bounds[static_cast<std::size_t>(i)] = 1ULL << i;
  return bounds;
}

MetricsRegistry::Instrument& MetricsRegistry::series(std::string_view name,
                                                     std::string_view help,
                                                     MetricKind kind,
                                                     Labels labels) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("MetricsRegistry: invalid metric name: " +
                                std::string(name));
  }
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!valid_label_name(labels[i].first) || labels[i].first == "le") {
      throw std::invalid_argument("MetricsRegistry: invalid label name: " +
                                  labels[i].first);
    }
    if (i > 0 && labels[i].first == labels[i - 1].first) {
      throw std::invalid_argument("MetricsRegistry: duplicate label: " +
                                  labels[i].first);
    }
  }
  auto [family_it, inserted] =
      families_.try_emplace(std::string(name));
  FamilyEntry& family = family_it->second;
  if (inserted) {
    family.help = std::string(help);
    family.kind = kind;
  } else if (family.kind != kind) {
    throw std::invalid_argument(
        "MetricsRegistry: metric re-registered with a different kind: " +
        std::string(name));
  }
  return family.series[std::move(labels)];
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst =
      series(name, help, MetricKind::kCounter, std::move(labels));
  if (!inst.counter) inst.counter = std::make_unique<Counter>();
  return *inst.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst = series(name, help, MetricKind::kGauge, std::move(labels));
  if (!inst.gauge) inst.gauge = std::make_unique<Gauge>();
  return *inst.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::vector<std::uint64_t> bounds,
                                      Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Instrument& inst =
      series(name, help, MetricKind::kHistogram, std::move(labels));
  if (!inst.histogram) {
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (inst.histogram->bounds() != bounds) {
    throw std::invalid_argument(
        "MetricsRegistry: histogram re-registered with different bounds: " +
        std::string(name));
  }
  return *inst.histogram;
}

std::vector<MetricsRegistry::Family> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Family> out;
  out.reserve(families_.size());
  for (const auto& [name, entry] : families_) {
    Family family;
    family.name = name;
    family.help = entry.help;
    family.kind = entry.kind;
    family.series.reserve(entry.series.size());
    for (const auto& [labels, inst] : entry.series) {
      Series s;
      s.labels = labels;
      switch (entry.kind) {
        case MetricKind::kCounter:
          s.counter_value = inst.counter->value();
          break;
        case MetricKind::kGauge:
          s.gauge_value = inst.gauge->value();
          break;
        case MetricKind::kHistogram:
          s.histogram = inst.histogram->snapshot();
          break;
      }
      family.series.push_back(std::move(s));
    }
    out.push_back(std::move(family));
  }
  return out;
}

}  // namespace canids::telemetry
