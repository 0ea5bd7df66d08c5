// Metrics registry: counters, gauges, and histograms with atomic hot paths.
//
// A metric is identified by a name plus an ordered-by-key label set
// ("detector.transitions{from=S1,to=S3}"). The registry hands out stable
// references; increments and observations are lock-free atomic operations
// so instrumented hot paths (event loop, scheduler ticks, detector samples)
// can run concurrently across the testbed's worker threads. Registration
// itself takes a mutex and should happen once per site, not per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fgcs::obs {

/// Label set attached to a metric family member, e.g. {{"from","S1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins floating-point metric with atomic max/add helpers.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }

  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed)) {
    }
  }

  /// Raises the gauge to `v` if it is currently lower.
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// overflow bucket catches the rest.
///
/// observe() costs exactly two relaxed atomic RMWs (bucket + sum): the
/// total count is derived from the bucket counts at read time instead of
/// being maintained as a third shared atomic, which measurably cuts
/// contention when many threads observe into one series (see the
/// histogram_observe microbench).
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Total observations, derived by summing the buckets. Reads are not a
  /// hot path (snapshots/exports); writers stay two-RMW.
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate by linear interpolation inside the bucket that
  /// contains the q-th observation. Returns 0 when empty.
  double quantile(double q) const;

  /// Exponential 1-2-5 bounds from 1us to 100s — the default for the
  /// wall-clock profiling scopes.
  static std::vector<double> default_time_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// One exported metric value (see MetricRegistry::snapshot).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;  // sorted by key
  Kind kind = Kind::kCounter;

  double value = 0.0;  // counter/gauge value

  // Histogram-only fields.
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;

  /// "name" or "name{k=v,...}".
  std::string series() const;
};

/// Owns every metric and resolves (name, labels) -> stable reference.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create. Throws ConfigError if the series already exists with
  /// a different metric kind.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {},
                       std::vector<double> bounds = {});

  /// Consistent point-in-time listing, sorted by series name.
  std::vector<MetricSample> snapshot() const;

  /// CSV export: metric,labels,type,value,count,sum,p50,p90,p99.
  void write_csv(std::ostream& out) const;

  std::size_t size() const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Labels&& labels,
                        MetricSample::Kind kind,
                        std::vector<double>&& bounds);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // keyed by series string
};

/// Renders a sorted label set as "k=v,k2=v2".
std::string format_labels(const Labels& labels);

/// Quantile estimate from explicit histogram buckets, by linear
/// interpolation inside the bucket containing the q-th observation.
/// Bucket i counts observations <= bounds[i]; counts must have one extra
/// overflow bucket (counts.size() == bounds.size() + 1, clamped to the
/// last bound). Returns 0 when the buckets are empty. Shared by
/// Histogram::quantile and the windowed quantile queries of `fgcs stats`.
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts,
                             double q);

}  // namespace fgcs::obs
