// Lock-free telemetry primitives for the fleet service: monotonic
// counters, gauges, and fixed-bucket histograms behind a named registry,
// rendered by exposition.h as Prometheus text.
//
// Design constraints, in order:
//   1. Hot-path writes are a relaxed fetch_add — no mutex, no allocation,
//      no branch beyond the bucket search. Registration (cold) takes a
//      mutex and returns a stable reference that never moves or dies
//      before the registry does, so workers capture raw pointers once.
//   2. Determinism. Histogram bounds are fixed integers chosen at
//      registration, counts and sums are exact uint64 arithmetic, so
//      snapshots taken from N worker shards merge by element-wise
//      addition into a result bit-identical to a single-shard run —
//      the same merge contract the campaign partial reports follow.
//   3. One source of truth. The engine does not maintain parallel
//      counters: FleetEngine::publish_metrics folds the same per-stream
//      snapshots that STATUS and the fleet table read into the registry
//      at scrape time, so the exposition can never disagree with them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace canids::telemetry {

/// Monotonic counter. Writers use add(); scrape-time folds (where the
/// authoritative total is recomputed from per-stream state) use fold(),
/// which only ever moves the value up — the Prometheus monotonicity
/// contract holds either way.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raise the counter to `v` if it is currently below it (CAS max).
  void fold(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value; may go up or down.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of a histogram: per-bucket (non-cumulative) counts
/// plus the exact sum. All-integer, so merge() is commutative and
/// associative — merging shard snapshots in any order yields the same
/// bytes as observing everything in one histogram.
struct HistogramSnapshot {
  /// Inclusive upper bounds, strictly increasing; an implicit +Inf
  /// overflow bucket follows the last bound.
  std::vector<std::uint64_t> bounds;
  /// bounds.size() + 1 entries; counts[i] is the number of observations
  /// with value <= bounds[i] (and > bounds[i-1]); the last entry is the
  /// overflow bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t sum = 0;

  [[nodiscard]] std::uint64_t count() const noexcept;
  /// Bucket index a value falls into (last index = overflow).
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const noexcept;
  /// Element-wise accumulate `other`. Throws std::invalid_argument when
  /// the bucket bounds differ — merging histograms from different ladders
  /// is a bug, not a degradation.
  void merge(const HistogramSnapshot& other);
  /// Estimate the q-quantile (q in [0,1]) by linear interpolation inside
  /// the bucket holding the target rank; the overflow bucket reports its
  /// lower bound (the largest finite bound). 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Fixed-bucket histogram over non-negative integer values (by convention
/// nanoseconds for latencies). observe() is two relaxed fetch_adds plus a
/// binary search over the bounds.
class Histogram {
 public:
  /// `bounds` are the inclusive bucket upper bounds, non-empty and
  /// strictly increasing (throws std::invalid_argument otherwise); an
  /// overflow bucket is always appended.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value) noexcept {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const noexcept;
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Copy out the live counts. Individual loads are relaxed, so a
  /// snapshot taken while writers run is a consistent-enough monitoring
  /// view, not a linearizable cut; quiescent snapshots are exact.
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> sum_{0};
};

/// The latency ladder shared by every *_ns histogram: ~4 buckets per
/// decade from 1 µs to 1 s. Fixed here so every shard's snapshot
/// merges and compares against one ladder.
[[nodiscard]] std::vector<std::uint64_t> latency_bounds_ns();

/// Power-of-two ladder {1, 2, 4, ..., 2^(count-1)} for size-ish values
/// (queue occupancy, batch sizes).
[[nodiscard]] std::vector<std::uint64_t> pow2_bounds(int count);

/// Label set of one series, sorted by key (the registry sorts on entry,
/// so call-site order never matters).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Named metrics, grouped into families (one name + help + kind, many
/// label-distinguished series). Lookup/registration is mutexed and
/// idempotent: the same (name, labels) always returns the same
/// instrument, whose address is stable for the registry's lifetime.
/// Mismatched re-registration (kind, or histogram bounds) throws
/// std::invalid_argument, as do names/labels outside the Prometheus
/// charset and use of the reserved "le" label.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<std::uint64_t> bounds, Labels labels = {});

  struct Series {
    Labels labels;
    std::uint64_t counter_value = 0;  ///< kCounter
    std::int64_t gauge_value = 0;     ///< kGauge
    HistogramSnapshot histogram;      ///< kHistogram
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    /// Sorted by labels — deterministic regardless of registration order.
    std::vector<Series> series;
  };
  /// Families sorted by name, series sorted by labels: the stable order
  /// the exposition golden tests rely on.
  [[nodiscard]] std::vector<Family> snapshot() const;

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct FamilyEntry {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::map<Labels, Instrument> series;
  };

  Instrument& series(std::string_view name, std::string_view help,
                     MetricKind kind, Labels labels);

  mutable std::mutex mutex_;
  std::map<std::string, FamilyEntry, std::less<>> families_;
};

}  // namespace canids::telemetry
