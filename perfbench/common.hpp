// Shared plumbing of the fgcs benchmark driver: cheap timestamps, the
// in-memory span recorder, the result sheet every workload fills, and the
// measurement helpers (quantiles, record digests, peak RSS, disk usage).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "fgcs/trace/records.hpp"

namespace perfbench {

// --- clock -------------------------------------------------------------------

/// A raw timestamp: the cycle counter where the ISA has one (vmcache's
/// rdtsc/diff_ns idiom -- a read costs a few ns, which matters next to a
/// ~100 ns serve query), steady_clock elsewhere. ns_per_tick() converts.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v = 0;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Marks the calibration base; main() calls it first.
void start_clock();

/// Nanoseconds per tick, calibrated against steady_clock over everything
/// since start_clock(): the later the call, the tighter the estimate.
double ns_per_tick();

/// Mean cost of one ticks() read and of one steady_clock::now(), in ns.
double tick_read_ns();
double steady_read_ns();

/// Wall seconds since `t0`, for loop control only.
double seconds_since(std::chrono::steady_clock::time_point t0);

/// Tick counts as seconds.
std::vector<double> to_seconds(const std::vector<std::uint64_t>& t,
                               double ns_per_tick);

// --- spans -------------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<call>" and must be a
/// string literal; root spans are named "bench.*". `busy` is end - start
/// for one call, or the summed duration of `calls` short calls recorded
/// as one aggregate.
struct Span {
  const char* name = nullptr;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t busy = 0;
  std::int32_t parent = -1;
  std::uint64_t calls = 1;
};

/// Per-thread, in-memory span recorder. open() nests the new span under
/// the innermost open one; the spans are written out when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  std::int32_t open(const char* name) {
    spans_.push_back(Span{name, ticks(), 0, 0, current_, 1});
    current_ = static_cast<std::int32_t>(spans_.size()) - 1;
    return current_;
  }

  void close(std::int32_t id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = ticks();
    span.busy = span.end - span.start;
    current_ = span.parent;
  }

  /// Records an already-timed span -- or an aggregate of `calls` calls
  /// that were busy for `busy` ticks in all -- under `parent`.
  std::int32_t record(const char* name, std::uint64_t start,
                      std::uint64_t end, std::uint64_t busy,
                      std::uint64_t calls, std::int32_t parent) {
    spans_.push_back(Span{name, start, end, busy, parent, calls});
    return static_cast<std::int32_t>(spans_.size()) - 1;
  }

  std::int32_t current() const { return current_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a null tracer records nothing, so the traced and the
/// untraced run share one code path.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Per span name: calls, busy time, and self time -- busy time minus the
/// busy time of its direct children -- in ns.
struct SpanTotals {
  std::uint64_t calls = 0;
  double busy_ns = 0.0;
  double self_ns = 0.0;
};
using Totals = std::map<std::string, SpanTotals>;

Totals summarize(const std::vector<const Tracer*>& tracers,
                 double ns_per_tick);

/// Busy ns and calls of one span name (0 when absent).
double busy_ns(const Totals& totals, const std::string& name);
std::uint64_t calls_of(const Totals& totals, const std::string& name);

/// The share of root-span ("bench.*") time no layer span covers: traced
/// wall minus the layers' self times, over traced wall.
double unaccounted_frac(const Totals& totals);

/// Writes every span as JSON, times in ns from the earliest span.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 double ns_per_tick);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed output check.
  std::vector<std::string> errors;
  /// Contract metrics: end-to-end (untraced run) or per-layer (traced).
  std::vector<Metric> metrics;
  /// The workload's own figures for the table (machine_days_per_s, ...).
  std::vector<Metric> details;
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts `n` failed operations, with the reason.
  void fail(std::uint64_t n, std::string why) {
    failed += n;
    errors.push_back(std::move(why));
  }
};

/// What every workload is handed.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  /// Spill directories live here, on the checkout's own filesystem.
  std::string work_dir;
  /// Span files go here.
  std::string out_dir;
  /// The most threads a workload may run: min(usable CPUs, 4).
  unsigned threads = 1;

  std::string spans_path() const;
};

Result run_sweep(const Context& ctx, bool faulted);
Result run_query(const Context& ctx);
Result run_serve(const Context& ctx);

// --- measurement helpers -----------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; sorts `v`. 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// The same over raw tick counts, by selection rather than a full sort.
double quantile(std::vector<std::uint32_t>& v, double q);

std::uint64_t mix64(std::uint64_t x);
std::uint64_t bits_of(double v);

/// Order-independent digest of a record multiset: the count plus the sum
/// and xor of a 64-bit mix of every field (doubles by bit pattern).
struct RecordDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  void add(const fgcs::trace::UnavailabilityRecord& r);
  bool operator==(const RecordDigest&) const = default;
};

/// Restarts the kernel's resident-set high-water mark (VmHWM) through
/// /proc/self/clear_refs; false where /proc refuses that.
bool reset_peak_rss();

/// Peak resident set size over a measured phase: VmHWM, restarted when
/// the phase begins. Throws where the mark cannot be restarted; main()
/// refuses such a run before it starts.
class PeakRss {
 public:
  PeakRss();

  /// Returns the phase's peak so far, in MB.
  double peak_mb() const;
};

/// Heap allocations so far (the counting operator new, alloc_count.cpp).
std::uint64_t heap_allocs();

/// Bytes in the regular files directly inside `dir`.
std::uint64_t dir_bytes(const std::string& dir);

/// Filesystem type of `path`: "ext4", "tmpfs", "overlayfs", ...
std::string fs_type(const std::string& path);
bool is_tmpfs(const std::string& path);

}  // namespace perfbench
