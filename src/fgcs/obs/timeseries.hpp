// Sim-time-aligned metrics time series: columnar on-disk format + binned
// per-shard collection + one-shot registry snapshots.
//
// The registry (metrics.hpp) answers "how many, in total"; this file
// answers "how many, *when*". Three pieces:
//
//  * FGCSMET1, a columnar SoA segment format for (series, sim-time, value)
//    samples, reusing the trace-v2 block/footer/magic idiom (util/binio):
//
//      header   magic "FGCSMET1", i64 start_us, i64 end_us,
//               i64 resolution_us
//      blocks   repeated: u32 block magic "MBK2", u32 count n, then SoA
//               columns u32 series[n], i64 ts_us[n], f64 value[n], then a
//               u32 CRC-32 of (count || columns) written last — the
//               block's commit mark, same idiom as trace "BLK3" blocks
//               (legacy "MBK1" blocks without the CRC still read fine)
//      footer   u64 series_count, per series {u32 name_len, u8 kind,
//               name bytes}, u64 block_count, per block {u64 offset,
//               u64 count, u32 min_series, u32 max_series, i64 min_ts_us,
//               i64 max_ts_us}, u64 total_samples, u64 footer_offset,
//               trailing magic "FGCSEND1"
//
//    Counter-kind series store *cumulative* values as right-continuous
//    step functions: a sample (t, v) means "the total reached v at t and
//    stays there until the next sample". Bins with no change emit
//    nothing, so quiet series cost bytes proportional to activity.
//    MetricsView mmap()s a segment and skips non-matching blocks via the
//    per-block series/time ranges — `fgcs stats` never materializes the
//    whole segment.
//
//  * TimeSeriesShard: fixed sim-time bins of plain uint64 counters, one
//    per fleet shard, installed thread-locally with TimeSeriesScope next
//    to the CounterShard. Hot hooks cost one index computation and one
//    non-atomic increment — no allocation, no contention — and the bins
//    are additive, so per-shard series and fleet totals fold exactly.
//
//  * write_registry_snapshot: one sample of every counter / gauge /
//    histogram in a MetricRegistry, as a segment (histograms decompose
//    into .count / .sum / .bucket{le=...} sub-series) — how commands
//    other than the fleet sweep answer --metrics-ts-out.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fgcs/obs/flight_recorder.hpp"
#include "fgcs/obs/metrics.hpp"
#include "fgcs/sim/time.hpp"
#include "fgcs/util/binio.hpp"
#include "fgcs/util/io.hpp"

namespace fgcs::obs {

/// What a series' samples mean (one byte in the segment's series table).
enum class SeriesKind : std::uint8_t {
  kCounter = 0,     // cumulative, non-decreasing
  kGauge = 1,       // last-write-wins level
  kHistCount = 2,   // cumulative histogram observation count
  kHistSum = 3,     // cumulative histogram observation sum
  kHistBucket = 4,  // cumulative per-bucket count (le=<bound> label)
};

/// Returns the canonical short name ("counter", "gauge", ...).
std::string_view series_kind_name(SeriesKind kind);

/// One decoded sample.
struct MetricPoint {
  std::uint32_t series = 0;
  sim::SimTime at;
  double value = 0.0;
};

/// Series-table entry of an FGCSMET1 segment.
struct SeriesInfo {
  std::string name;  // full series string, e.g. "fault.injected{kind=crash}"
  SeriesKind kind = SeriesKind::kCounter;
};

/// Streaming FGCSMET1 writer: samples are buffered into fixed-capacity
/// blocks and spilled as each fills; memory is O(block + series table).
/// finish() (or destruction) seals the segment with the footer index.
class MetricsWriterV1 {
 public:
  static constexpr std::size_t kDefaultBlockSamples = 4096;

  MetricsWriterV1(const std::string& path, sim::SimTime start,
                  sim::SimTime end, sim::SimDuration resolution,
                  std::size_t block_samples = kDefaultBlockSamples);
  ~MetricsWriterV1();

  MetricsWriterV1(const MetricsWriterV1&) = delete;
  MetricsWriterV1& operator=(const MetricsWriterV1&) = delete;

  /// Find-or-add a series id. Throws ConfigError when the name was
  /// already registered with a different kind.
  std::uint32_t series_id(std::string_view name, SeriesKind kind);

  void append(std::uint32_t series, sim::SimTime at, double value);

  /// Flushes the pending block and writes the series table + footer.
  /// Idempotent; the destructor calls it too (and swallows errors — call
  /// finish() explicitly to see them).
  void finish();

  std::uint64_t samples_written() const { return total_; }
  const std::string& path() const { return path_; }

  /// CRC-32 of every byte written so far; after finish() this is the
  /// content hash of the whole segment.
  std::uint32_t content_crc() const;

 private:
  struct BlockMeta {
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
    std::uint32_t min_series = 0;
    std::uint32_t max_series = 0;
    std::int64_t min_ts = 0;
    std::int64_t max_ts = 0;
  };

  void flush_block();

  std::string path_;
  std::unique_ptr<util::SyncFile> out_;
  std::size_t block_samples_;
  std::vector<MetricPoint> pending_;
  std::vector<SeriesInfo> series_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
  std::vector<BlockMeta> blocks_;
  std::uint64_t offset_ = 0;
  std::uint64_t total_ = 0;
  bool finished_ = false;
};

/// Zero-copy FGCSMET1 reader (mmap with buffered fallback). Opening costs
/// the footer parse; queries visit only blocks whose series/time ranges
/// overlap. Throws IoError on malformed input.
class MetricsView {
 public:
  explicit MetricsView(const std::string& path);

  MetricsView(MetricsView&&) noexcept = default;
  MetricsView& operator=(MetricsView&&) noexcept = default;
  MetricsView(const MetricsView&) = delete;
  MetricsView& operator=(const MetricsView&) = delete;

  sim::SimTime horizon_start() const { return start_; }
  sim::SimTime horizon_end() const { return end_; }
  sim::SimDuration resolution() const { return resolution_; }

  const std::vector<SeriesInfo>& series() const { return series_; }
  std::optional<std::uint32_t> find_series(std::string_view name) const;

  std::uint64_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  std::size_t block_count() const { return blocks_.size(); }
  std::uint64_t block_size(std::size_t block) const;

  /// Sample `i` of `block`, materialized from the columns.
  MetricPoint point(std::size_t block, std::size_t i) const;

  /// Visits every sample in stored order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::uint64_t n = blocks_[b].count;
      for (std::uint64_t i = 0; i < n; ++i) f(point(b, i));
    }
  }

  /// Visits the samples of one series with timestamps in [t0, t1], in
  /// stored order, skipping blocks whose series or time range cannot
  /// match.
  template <typename F>
  void for_each_of(std::uint32_t series, sim::SimTime t0, sim::SimTime t1,
                   F&& f) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const Block& blk = blocks_[b];
      if (series < blk.min_series || series > blk.max_series) continue;
      if (t1.as_micros() < blk.min_ts || t0.as_micros() > blk.max_ts) continue;
      for (std::uint64_t i = 0; i < blk.count; ++i) {
        const MetricPoint p = point(b, i);
        if (p.series == series && p.at >= t0 && p.at <= t1) f(p);
      }
    }
  }

 private:
  struct Block {
    std::uint64_t offset = 0;  // file offset of the block's column data
    std::uint64_t count = 0;
    std::uint32_t min_series = 0;
    std::uint32_t max_series = 0;
    std::int64_t min_ts = 0;
    std::int64_t max_ts = 0;
  };

  util::MappedFile file_;
  sim::SimTime start_;
  sim::SimTime end_;
  sim::SimDuration resolution_;
  std::uint64_t total_ = 0;
  std::vector<SeriesInfo> series_;
  std::vector<Block> blocks_;
};

/// True when `path` starts with the FGCSMET1 magic.
bool is_metrics_v1(const std::string& path);

/// Fixed sim-time bins of the detector/fault activity counters a fleet
/// shard produces — the time-resolved companion of CounterShard. All
/// cells are plain uint64: install one per worker with TimeSeriesScope
/// and fold/write after the parallel section.
class TimeSeriesShard {
 public:
  TimeSeriesShard(sim::SimTime start, sim::SimTime end,
                  sim::SimDuration resolution);

  // Hot hooks (called from the obs hooks when a scope is installed).
  // States and fault kinds use the hooks' conventions: 1-based S-states,
  // 0-based fault::FaultKind.
  /// Bins `count` detector samples at at, at+stride, ...,
  /// at+stride*(count-1), the hottest hook by far. Bins advance
  /// run-at-a-time, so a machine-day of samples costs O(bins touched),
  /// not O(samples): samples that land in the cached bin accumulate in a
  /// pending counter on the same cache line as the bin cache, which folds
  /// into samples_ when the cache moves or a reader needs consistent bins
  /// (flush_pending).
  void on_samples(sim::SimTime at, sim::SimDuration stride,
                  std::uint64_t count);
  /// Bins one event of a kind the shard counts: state transitions,
  /// faults, episode opens/closes, sensor gaps, serve ingests and queries.
  void record(const FlightEvent& e);

  sim::SimTime start() const { return start_; }
  sim::SimTime end() const { return end_; }
  sim::SimDuration resolution() const { return resolution_; }
  std::size_t bin_count() const { return samples_.size(); }

  /// Total detector samples across all bins. The binned detector-sample
  /// fast path defers the shard/registry total to this sum (see
  /// obs::detector_samples).
  std::uint64_t total_samples() const {
    flush_pending();
    std::uint64_t total = 0;
    for (const std::uint64_t v : samples_) total += v;
    return total;
  }

  /// Sim time of the right edge of bin `i` (clamped to the horizon end);
  /// the timestamp its cumulative samples are emitted at.
  sim::SimTime bin_end(std::size_t i) const;

  /// Adds another shard's bins into this one (geometries must match) —
  /// how fleet totals are built from per-shard series.
  void add(const TimeSeriesShard& other);

  /// Emits every non-empty series into `w` as cumulative step samples,
  /// with `extra` labels (e.g. {{"shard","0003"}}) merged into each
  /// series name. Deterministic: integer-derived values, fixed order.
  void write_series(MetricsWriterV1& w, const Labels& extra) const;

  /// Upper bounds (minutes) of the episode-length histogram family
  /// "detector.episode_minutes" that shards collect per bin.
  static const std::vector<double>& episode_minute_bounds();

  /// Serializes every bin family (geometry header + raw u64 bins) onto
  /// `out` — the checkpointable image of this shard's metrics state. A
  /// resumed fleet run load_bins()es completed shards so the merged
  /// FGCSMET1 segment is byte-identical to an uninterrupted run's.
  void save_bins(std::vector<unsigned char>& out) const;

  /// Restores bins saved by save_bins() into this shard (which must have
  /// been constructed with the same horizon/resolution). Throws IoError
  /// on a size/geometry mismatch — a checkpoint from a different config
  /// must not silently merge.
  void load_bins(const unsigned char* data, std::size_t size);

 private:
  // Hot hooks arrive in near-monotone sim time, so consecutive calls
  // almost always land in the bin of the previous one: remember that
  // bin's time span and pay the division only on a miss.
  std::size_t bin(sim::SimTime at) const {
    const std::int64_t t = at.as_micros();
    if (t >= cached_lo_ && t < cached_hi_) return cached_bin_;
    return bin_slow(t);
  }

  std::size_t bin_slow(std::int64_t t) const;

  /// Folds pending_samples_ into samples_[cached_bin_]. Const because
  /// readers (write_series, total_samples, add) must be able to settle
  /// the books; the underlying shard is never actually const-qualified —
  /// pending counts only exist after non-const hook calls.
  void flush_pending() const;

  sim::SimTime start_;
  sim::SimTime end_;
  sim::SimDuration resolution_;

  // bin() fast-path cache: the edge bins absorb everything outside the
  // horizon, so their spans extend to the int64 limits.
  mutable std::int64_t cached_lo_ = 1;
  mutable std::int64_t cached_hi_ = 0;  // empty span until the first miss
  mutable std::size_t cached_bin_ = 0;
  /// Samples counted for cached_bin_ but not yet in samples_.
  mutable std::uint64_t pending_samples_ = 0;

  // One vector<u64> per series, each bin_count() long.
  std::vector<std::uint64_t> samples_;
  std::vector<std::uint64_t> transitions_;
  std::vector<std::vector<std::uint64_t>> state_entered_;  // [state-1]
  std::vector<std::uint64_t> episodes_opened_;
  std::vector<std::uint64_t> episodes_closed_;
  std::vector<std::uint64_t> episode_us_;  // closed-episode length sum
  std::vector<std::vector<std::uint64_t>> episode_buckets_;  // [bucket]
  std::vector<std::uint64_t> sensor_gaps_;
  std::vector<std::uint64_t> sensor_gap_us_;
  std::vector<std::vector<std::uint64_t>> faults_;  // [kind]
  std::vector<std::uint64_t> serve_ingests_;
  std::vector<std::uint64_t> serve_queries_;
};

namespace detail {
extern constinit thread_local TimeSeriesShard* t_ts_shard;
}  // namespace detail

/// The calling thread's installed time-series shard, or nullptr.
inline TimeSeriesShard* current_ts_shard() { return detail::t_ts_shard; }

/// RAII thread-local install/restore, mirroring ShardScope. The caller
/// owns the shard and writes it out after the scope ends.
class TimeSeriesScope {
 public:
  explicit TimeSeriesScope(TimeSeriesShard* shard);
  ~TimeSeriesScope();
  TimeSeriesScope(const TimeSeriesScope&) = delete;
  TimeSeriesScope& operator=(const TimeSeriesScope&) = delete;

 private:
  TimeSeriesShard* previous_;
};

/// Writes one sample of every series in `registry`, stamped at `at`, as
/// an FGCSMET1 segment at `path` over the one-hour horizon
/// [at, at + 1 h). Histogram buckets that never counted are left out.
/// Throws IoError when the segment cannot be written.
void write_registry_snapshot(const MetricRegistry& registry,
                             const std::string& path, sim::SimTime at);

}  // namespace fgcs::obs
