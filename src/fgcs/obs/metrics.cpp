#include "fgcs/obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "fgcs/util/csv.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/table.hpp"

namespace fgcs::obs {

namespace {

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  fgcs::require(!bounds_.empty(), "histogram needs at least one bound");
  fgcs::require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::quantile(double q) const {
  return quantile_from_buckets(bounds_, bucket_counts(), q);
}

double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts,
                             double q) {
  if (bounds.empty() || counts.size() != bounds.size() + 1) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;

  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (cumulative + c < target) {
      cumulative += c;
      continue;
    }
    // The q-th observation falls in bucket i; interpolate linearly.
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    if (c <= 0.0) return hi;
    const double frac = (target - cumulative) / c;
    return lo + (hi - lo) * frac;
  }
  return bounds.back();
}

std::vector<double> Histogram::default_time_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1e3; decade *= 10.0) {
    for (const double m : {1.0, 2.0, 5.0}) {
      if (decade * m > 100.0) break;
      bounds.push_back(decade * m);
    }
  }
  return bounds;
}

std::string format_labels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::string MetricSample::series() const {
  if (labels.empty()) return name;
  return name + "{" + format_labels(labels) + "}";
}

MetricRegistry::Entry& MetricRegistry::find_or_create(
    std::string_view name, Labels&& labels, MetricSample::Kind kind,
    std::vector<double>&& bounds) {
  std::sort(labels.begin(), labels.end());
  MetricSample key_sample;
  key_sample.name = std::string(name);
  key_sample.labels = labels;
  const std::string key = key_sample.series();

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    fgcs::require(it->second.kind == kind,
                  "metric '" + key + "' already registered with another kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  switch (kind) {
    case MetricSample::Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricSample::Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricSample::Kind::kHistogram:
      if (bounds.empty()) bounds = Histogram::default_time_bounds();
      entry.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricRegistry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kCounter,
                         {})
              .counter;
}

Gauge& MetricRegistry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kGauge,
                         {})
              .gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name, Labels labels,
                                     std::vector<double> bounds) {
  return *find_or_create(name, std::move(labels),
                         MetricSample::Kind::kHistogram, std::move(bounds))
              .histogram;
}

std::size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSample s;
    s.name = entry.name;
    s.labels = entry.labels;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(entry.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = entry.gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.count = entry.histogram->count();
        s.sum = entry.histogram->sum();
        s.bounds = entry.histogram->bounds();
        s.buckets = entry.histogram->bucket_counts();
        s.p50 = entry.histogram->quantile(0.50);
        s.p90 = entry.histogram->quantile(0.90);
        s.p99 = entry.histogram->quantile(0.99);
        break;
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

void MetricRegistry::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.write("metric", "labels", "type", "value", "count", "sum", "p50", "p90",
            "p99");
  for (const auto& s : snapshot()) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        csv.write(s.name, format_labels(s.labels), "counter",
                  static_cast<std::uint64_t>(s.value), "", "", "", "", "");
        break;
      case MetricSample::Kind::kGauge:
        csv.write(s.name, format_labels(s.labels), "gauge", s.value, "", "",
                  "", "", "");
        break;
      case MetricSample::Kind::kHistogram:
        csv.write(s.name, format_labels(s.labels), "histogram", "", s.count,
                  s.sum, s.p50, s.p90, s.p99);
        break;
    }
  }
}

}  // namespace fgcs::obs
