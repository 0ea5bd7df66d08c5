#include "fgcs/obs/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "fgcs/util/error.hpp"

namespace fgcs::obs {

namespace {

using util::load;
using util::store;

constexpr char kMagic[8] = {'F', 'G', 'C', 'S', 'M', 'E', 'T', '1'};
constexpr char kEndMagic[8] = {'F', 'G', 'C', 'S', 'E', 'N', 'D', '1'};
constexpr std::uint32_t kBlockMagic = 0x314B424D;    // "MBK1" little-endian
constexpr std::uint32_t kBlockMagicV2 = 0x324B424D;  // "MBK2": trailing CRC
constexpr std::size_t kHeaderBytes = 32;
// u64 total_samples + u64 footer_offset + trailing magic.
constexpr std::size_t kTrailerBytes = 24;
constexpr std::size_t kBlockEntryBytes = 40;
// Per-sample bytes across the three columns (4 + 8 + 8).
constexpr std::uint64_t kSampleBytes = 20;
// Corruption guards: no writer produces tables this large.
constexpr std::uint64_t kMaxPlausibleSeries = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxPlausibleName = std::uint64_t{1} << 16;

std::string format_bound(double bound) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", bound);
  return buf;
}

// Full series string for `base` + merged sorted labels, via the same
// renderer the registry uses.
std::string series_string(std::string_view base, Labels labels) {
  std::sort(labels.begin(), labels.end());
  MetricSample s;
  s.name = std::string(base);
  s.labels = std::move(labels);
  return s.series();
}

Labels merge_labels(const Labels& a, const Labels& b) {
  Labels out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

std::string_view series_kind_name(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistCount:
      return "hist_count";
    case SeriesKind::kHistSum:
      return "hist_sum";
    case SeriesKind::kHistBucket:
      return "hist_bucket";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MetricsWriterV1

MetricsWriterV1::MetricsWriterV1(const std::string& path, sim::SimTime start,
                                 sim::SimTime end, sim::SimDuration resolution,
                                 std::size_t block_samples)
    : path_(path), block_samples_(block_samples) {
  fgcs::require(end > start, "MetricsWriterV1 horizon must be non-empty");
  fgcs::require(resolution > sim::SimDuration::zero(),
                "MetricsWriterV1 resolution must be positive");
  fgcs::require(block_samples_ > 0,
                "MetricsWriterV1 block size must be positive");
  out_ = std::make_unique<util::SyncFile>(path);
  pending_.reserve(block_samples_);
  std::vector<unsigned char> head;
  head.insert(head.end(), kMagic, kMagic + sizeof kMagic);
  store<std::int64_t>(head, start.as_micros());
  store<std::int64_t>(head, end.as_micros());
  store<std::int64_t>(head, resolution.as_micros());
  out_->write(head.data(), head.size());
  offset_ = kHeaderBytes;
}

MetricsWriterV1::~MetricsWriterV1() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; callers wanting the error call finish().
  }
}

std::uint32_t MetricsWriterV1::series_id(std::string_view name,
                                         SeriesKind kind) {
  fgcs::require(!finished_, "MetricsWriterV1 already finished");
  const auto it = index_.find(name);
  if (it != index_.end()) {
    fgcs::require(series_[it->second].kind == kind,
                  "metrics series '" + std::string(name) +
                      "' already registered with another kind");
    return it->second;
  }
  fgcs::require(!name.empty() && name.size() < kMaxPlausibleName,
                "metrics series name length out of range");
  fgcs::require(series_.size() < kMaxPlausibleSeries,
                "too many metrics series");
  const auto id = static_cast<std::uint32_t>(series_.size());
  series_.push_back({std::string(name), kind});
  index_.emplace(std::string(name), id);
  return id;
}

void MetricsWriterV1::append(std::uint32_t series, sim::SimTime at,
                             double value) {
  fgcs::require(!finished_, "MetricsWriterV1 already finished");
  fgcs::require(series < series_.size(),
                "metrics sample references an unregistered series");
  pending_.push_back({series, at, value});
  ++total_;
  if (pending_.size() >= block_samples_) flush_block();
}

void MetricsWriterV1::flush_block() {
  if (pending_.empty()) return;
  const std::size_t n = pending_.size();
  std::vector<unsigned char> buf;
  buf.reserve(8 + kSampleBytes * n);
  store<std::uint32_t>(buf, kBlockMagicV2);
  store<std::uint32_t>(buf, static_cast<std::uint32_t>(n));

  BlockMeta meta;
  meta.offset = offset_ + 8;  // column data starts after magic + count
  meta.count = n;
  meta.min_series = std::numeric_limits<std::uint32_t>::max();
  meta.max_series = 0;
  meta.min_ts = std::numeric_limits<std::int64_t>::max();
  meta.max_ts = std::numeric_limits<std::int64_t>::min();
  for (const auto& p : pending_) {
    meta.min_series = std::min(meta.min_series, p.series);
    meta.max_series = std::max(meta.max_series, p.series);
    meta.min_ts = std::min(meta.min_ts, p.at.as_micros());
    meta.max_ts = std::max(meta.max_ts, p.at.as_micros());
  }
  for (const auto& p : pending_) store<std::uint32_t>(buf, p.series);
  for (const auto& p : pending_) store<std::int64_t>(buf, p.at.as_micros());
  for (const auto& p : pending_) store<double>(buf, p.value);

  out_->write(buf.data(), buf.size());
  // Commit mark: the CRC over (count || columns) lands after the data it
  // covers, so a crash mid-flush leaves a detectably torn block.
  util::crashpoint(util::CrashPoint::kBlockWrite);
  const std::uint32_t crc = util::crc32(buf.data() + 4, buf.size() - 4);
  std::vector<unsigned char> tail;
  store<std::uint32_t>(tail, crc);
  out_->write(tail.data(), tail.size());
  out_->sync(util::Durability::kBlock);
  offset_ += buf.size() + tail.size();
  blocks_.push_back(meta);
  pending_.clear();
}

void MetricsWriterV1::finish() {
  if (finished_) return;
  flush_block();
  const std::uint64_t footer_offset = offset_;
  std::vector<unsigned char> buf;
  store<std::uint64_t>(buf, series_.size());
  for (const auto& s : series_) {
    store<std::uint32_t>(buf, static_cast<std::uint32_t>(s.name.size()));
    store<std::uint8_t>(buf, static_cast<std::uint8_t>(s.kind));
    const auto* p = reinterpret_cast<const unsigned char*>(s.name.data());
    buf.insert(buf.end(), p, p + s.name.size());
  }
  store<std::uint64_t>(buf, blocks_.size());
  for (const auto& b : blocks_) {
    store<std::uint64_t>(buf, b.offset);
    store<std::uint64_t>(buf, b.count);
    store<std::uint32_t>(buf, b.min_series);
    store<std::uint32_t>(buf, b.max_series);
    store<std::int64_t>(buf, b.min_ts);
    store<std::int64_t>(buf, b.max_ts);
  }
  store<std::uint64_t>(buf, total_);
  store<std::uint64_t>(buf, footer_offset);
  buf.insert(buf.end(), kEndMagic, kEndMagic + sizeof kEndMagic);
  out_->write(buf.data(), buf.size());
  // Segment seal — durable before any manifest claims the file exists.
  out_->sync(util::Durability::kCommit);
  out_->close();
  finished_ = true;
}

std::uint32_t MetricsWriterV1::content_crc() const {
  return out_ ? out_->content_crc() : 0;
}

// ---------------------------------------------------------------------------
// MetricsView

MetricsView::MetricsView(const std::string& path) : file_(path) {
  const unsigned char* data = file_.data();
  const std::size_t bytes = file_.size();
  // Smallest sealed segment: header + empty series/block tables + trailer.
  if (bytes < kHeaderBytes + 16 + kTrailerBytes ||
      std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    throw IoError(path + ": not an fgcs metrics segment (bad magic)");
  }
  if (std::memcmp(data + bytes - 8, kEndMagic, sizeof kEndMagic) != 0) {
    throw IoError(path + ": metrics segment missing end magic (truncated?)");
  }
  start_ = sim::SimTime::from_micros(load<std::int64_t>(data + 8));
  end_ = sim::SimTime::from_micros(load<std::int64_t>(data + 16));
  const std::int64_t res_us = load<std::int64_t>(data + 24);
  if (end_ <= start_ || res_us <= 0) {
    throw IoError(path + ": invalid metrics segment metadata");
  }
  resolution_ = sim::SimDuration::micros(res_us);
  total_ = load<std::uint64_t>(data + bytes - 24);
  const std::uint64_t footer_offset = load<std::uint64_t>(data + bytes - 16);
  if (footer_offset < kHeaderBytes ||
      footer_offset + 16 + kTrailerBytes > bytes) {
    throw IoError(path + ": metrics footer offset out of range");
  }

  // Cursor-parse the variable-length footer; it must land exactly at the
  // trailer.
  const std::uint64_t footer_end = bytes - kTrailerBytes;
  std::uint64_t cur = footer_offset;
  const auto need = [&](std::uint64_t n) {
    if (cur + n > footer_end) {
      throw IoError(path + ": metrics footer truncated");
    }
  };
  need(8);
  const std::uint64_t series_count = load<std::uint64_t>(data + cur);
  cur += 8;
  if (series_count > kMaxPlausibleSeries) {
    throw IoError(path + ": implausible metrics series count");
  }
  series_.reserve(series_count);
  for (std::uint64_t s = 0; s < series_count; ++s) {
    need(5);
    const std::uint32_t len = load<std::uint32_t>(data + cur);
    const std::uint8_t kind = data[cur + 4];
    cur += 5;
    if (len == 0 || len > kMaxPlausibleName || kind > 4) {
      throw IoError(path + ": metrics series table entry out of range");
    }
    need(len);
    series_.push_back({std::string(reinterpret_cast<const char*>(data + cur),
                                   len),
                       static_cast<SeriesKind>(kind)});
    cur += len;
  }
  need(8);
  const std::uint64_t block_count = load<std::uint64_t>(data + cur);
  cur += 8;
  if (cur + block_count * kBlockEntryBytes != footer_end) {
    throw IoError(path + ": metrics footer size mismatch");
  }
  blocks_.reserve(block_count);
  std::uint64_t sum = 0;
  for (std::uint64_t b = 0; b < block_count; ++b, cur += kBlockEntryBytes) {
    const unsigned char* entry = data + cur;
    Block blk;
    blk.offset = load<std::uint64_t>(entry);
    blk.count = load<std::uint64_t>(entry + 8);
    blk.min_series = load<std::uint32_t>(entry + 16);
    blk.max_series = load<std::uint32_t>(entry + 20);
    blk.min_ts = load<std::int64_t>(entry + 24);
    blk.max_ts = load<std::int64_t>(entry + 32);
    if (blk.count == 0 || blk.offset < kHeaderBytes + 8 ||
        blk.offset > footer_offset ||
        blk.offset + kSampleBytes * blk.count > footer_offset ||
        blk.max_series >= series_.size() ||
        blk.min_series > blk.max_series) {
      throw IoError(path + ": metrics block " + std::to_string(b) +
                    " index entry out of range");
    }
    const std::uint32_t block_magic = load<std::uint32_t>(data + blk.offset - 8);
    if (block_magic == kBlockMagicV2) {
      // Checksummed blocks carry 4 trailing CRC bytes after the columns;
      // verify eagerly — metrics segments are small next to traces, and a
      // reader of aggregates must not average corrupted samples.
      if (blk.offset + kSampleBytes * blk.count + 4 > footer_offset) {
        throw IoError(path + ": metrics block " + std::to_string(b) +
                      " checksum out of range");
      }
      const std::uint64_t payload = kSampleBytes * blk.count;
      const std::uint32_t computed = util::crc32(
          data + blk.offset - 4, static_cast<std::size_t>(payload + 4));
      if (computed != load<std::uint32_t>(data + blk.offset + payload)) {
        throw IoError(path + ": metrics block " + std::to_string(b) +
                      " checksum mismatch");
      }
    } else if (block_magic != kBlockMagic) {
      throw IoError(path + ": metrics block " + std::to_string(b) +
                    " missing block magic");
    }
    sum += blk.count;
    blocks_.push_back(blk);
  }
  if (sum != total_) {
    throw IoError(path + ": metrics sample total disagrees with block index");
  }
}

std::optional<std::uint32_t> MetricsView::find_series(
    std::string_view name) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

std::uint64_t MetricsView::block_size(std::size_t block) const {
  return blocks_.at(block).count;
}

MetricPoint MetricsView::point(std::size_t block, std::size_t i) const {
  const Block& blk = blocks_[block];
  const unsigned char* base = file_.at(blk.offset);
  const std::uint64_t n = blk.count;
  MetricPoint p;
  p.series = load<std::uint32_t>(base + 4 * i);
  p.at = sim::SimTime::from_micros(load<std::int64_t>(base + 4 * n + 8 * i));
  p.value = load<double>(base + 12 * n + 8 * i);
  return p;
}

bool is_metrics_v1(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return false;
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic);
  return in && std::memcmp(magic, kMagic, sizeof kMagic) == 0;
}

// ---------------------------------------------------------------------------
// TimeSeriesShard

TimeSeriesShard::TimeSeriesShard(sim::SimTime start, sim::SimTime end,
                                 sim::SimDuration resolution)
    : start_(start), end_(end), resolution_(resolution) {
  fgcs::require(end > start, "TimeSeriesShard horizon must be non-empty");
  fgcs::require(resolution > sim::SimDuration::zero(),
                "TimeSeriesShard resolution must be positive");
  const std::int64_t span = end.as_micros() - start.as_micros();
  const std::int64_t res = resolution.as_micros();
  const auto bins = static_cast<std::size_t>((span + res - 1) / res);
  const std::size_t n = bins == 0 ? 1 : bins;
  samples_.assign(n, 0);
  transitions_.assign(n, 0);
  state_entered_.assign(5, std::vector<std::uint64_t>(n, 0));
  episodes_opened_.assign(n, 0);
  episodes_closed_.assign(n, 0);
  episode_us_.assign(n, 0);
  episode_buckets_.assign(episode_minute_bounds().size() + 1,
                          std::vector<std::uint64_t>(n, 0));
  sensor_gaps_.assign(n, 0);
  sensor_gap_us_.assign(n, 0);
  faults_.assign(4, std::vector<std::uint64_t>(n, 0));
  serve_ingests_.assign(n, 0);
  serve_queries_.assign(n, 0);
}

void TimeSeriesShard::flush_pending() const {
  if (pending_samples_ == 0) return;
  // Writing through const: legitimate because a pending count can only
  // exist after non-const hook calls, so *this is never a const object.
  const_cast<TimeSeriesShard*>(this)->samples_[cached_bin_] +=
      pending_samples_;
  pending_samples_ = 0;
}

std::size_t TimeSeriesShard::bin_slow(std::int64_t t) const {
  flush_pending();  // the pending count belongs to the outgoing bin
  const std::int64_t res = resolution_.as_micros();
  const std::int64_t rel = t - start_.as_micros();
  std::size_t b = 0;
  if (rel > 0) {
    b = static_cast<std::size_t>(rel / res);
    if (b >= samples_.size()) b = samples_.size() - 1;
  }
  // Bin 0 also absorbs pre-horizon timestamps and the last bin everything
  // past the horizon, so the cached spans of the edge bins are unbounded
  // on the outside.
  cached_bin_ = b;
  cached_lo_ = b == 0 ? std::numeric_limits<std::int64_t>::min()
                      : start_.as_micros() +
                            static_cast<std::int64_t>(b) * res;
  cached_hi_ = b + 1 >= samples_.size()
                   ? std::numeric_limits<std::int64_t>::max()
                   : start_.as_micros() +
                         static_cast<std::int64_t>(b + 1) * res;
  return b;
}

void TimeSeriesShard::on_samples(sim::SimTime at, sim::SimDuration stride,
                                 std::uint64_t count) {
  std::int64_t t = at.as_micros();
  const std::int64_t step = stride.as_micros();
  while (count > 0) {
    if (t >= cached_lo_ && t < cached_hi_) {
      // How many of the remaining samples land in the cached bin.
      std::uint64_t n = count;
      if (step > 0 &&
          cached_hi_ != std::numeric_limits<std::int64_t>::max()) {
        const auto fit =
            static_cast<std::uint64_t>((cached_hi_ - t + step - 1) / step);
        if (fit < n) n = fit;
      }
      pending_samples_ += n;
      count -= n;
      t += step * static_cast<std::int64_t>(n);
      continue;
    }
    ++samples_[bin_slow(t)];  // refreshes the bin cache for the run
    --count;
    t += step;
  }
}

void TimeSeriesShard::record(const FlightEvent& e) {
  switch (e.kind) {
    case FlightEventKind::kStateTransition:
      ++transitions_[bin(e.at)];
      if (e.b >= 1 && e.b <= static_cast<int>(state_entered_.size())) {
        ++state_entered_[static_cast<std::size_t>(e.b - 1)][bin(e.at)];
      }
      break;
    case FlightEventKind::kFaultInjected:
      if (e.a >= 0 && e.a < static_cast<int>(faults_.size())) {
        ++faults_[static_cast<std::size_t>(e.a)][bin(e.at)];
      }
      break;
    case FlightEventKind::kEpisodeOpened:
      ++episodes_opened_[bin(e.at)];
      break;
    case FlightEventKind::kEpisodeClosed: {
      const std::size_t b = bin(e.at);
      ++episodes_closed_[b];
      episode_us_[b] += static_cast<std::uint64_t>(e.dur.as_micros());
      const auto& bounds = episode_minute_bounds();
      const auto it =
          std::lower_bound(bounds.begin(), bounds.end(), e.dur.as_minutes());
      ++episode_buckets_[static_cast<std::size_t>(it - bounds.begin())][b];
      break;
    }
    case FlightEventKind::kSensorGap: {
      const std::size_t b = bin(e.at);
      ++sensor_gaps_[b];
      sensor_gap_us_[b] += static_cast<std::uint64_t>(e.dur.as_micros());
      break;
    }
    case FlightEventKind::kServeIngest:
      ++serve_ingests_[bin(e.at)];
      break;
    case FlightEventKind::kServeQueries:
      serve_queries_[bin(e.at)] += e.count;
      break;
    default:
      break;
  }
}

sim::SimTime TimeSeriesShard::bin_end(std::size_t i) const {
  const std::int64_t edge =
      start_.as_micros() +
      static_cast<std::int64_t>(i + 1) * resolution_.as_micros();
  return edge > end_.as_micros() ? end_ : sim::SimTime::from_micros(edge);
}

void TimeSeriesShard::add(const TimeSeriesShard& other) {
  fgcs::require(start_ == other.start_ && end_ == other.end_ &&
                    resolution_ == other.resolution_,
                "TimeSeriesShard::add needs matching bin geometry");
  flush_pending();
  other.flush_pending();
  const auto fold = [](std::vector<std::uint64_t>& dst,
                       const std::vector<std::uint64_t>& src) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
  };
  fold(samples_, other.samples_);
  fold(transitions_, other.transitions_);
  for (std::size_t s = 0; s < state_entered_.size(); ++s) {
    fold(state_entered_[s], other.state_entered_[s]);
  }
  fold(episodes_opened_, other.episodes_opened_);
  fold(episodes_closed_, other.episodes_closed_);
  fold(episode_us_, other.episode_us_);
  for (std::size_t k = 0; k < episode_buckets_.size(); ++k) {
    fold(episode_buckets_[k], other.episode_buckets_[k]);
  }
  fold(sensor_gaps_, other.sensor_gaps_);
  fold(sensor_gap_us_, other.sensor_gap_us_);
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    fold(faults_[k], other.faults_[k]);
  }
  fold(serve_ingests_, other.serve_ingests_);
  fold(serve_queries_, other.serve_queries_);
}

const std::vector<double>& TimeSeriesShard::episode_minute_bounds() {
  static const std::vector<double> kBounds = {1,   2,   5,   10,  20,   30,  60,
                                              120, 240, 480, 960, 1440, 2880};
  return kBounds;
}

void TimeSeriesShard::save_bins(std::vector<unsigned char>& out) const {
  flush_pending();
  // Geometry header first, so a resume against a different config fails
  // loudly in load_bins instead of folding misaligned bins.
  store<std::int64_t>(out, start_.as_micros());
  store<std::int64_t>(out, end_.as_micros());
  store<std::int64_t>(out, resolution_.as_micros());
  store<std::uint64_t>(out, samples_.size());
  const auto put = [&](const std::vector<std::uint64_t>& bins) {
    for (const std::uint64_t v : bins) store<std::uint64_t>(out, v);
  };
  const auto put_family = [&](const std::vector<std::vector<std::uint64_t>>& f) {
    store<std::uint64_t>(out, f.size());
    for (const auto& bins : f) put(bins);
  };
  put(samples_);
  put(transitions_);
  put_family(state_entered_);
  put(episodes_opened_);
  put(episodes_closed_);
  put(episode_us_);
  put_family(episode_buckets_);
  put(sensor_gaps_);
  put(sensor_gap_us_);
  put_family(faults_);
  // Serve families go last so pre-serve checkpoints fail the size check
  // (load_bins rejects short blobs) instead of silently misaligning.
  put(serve_ingests_);
  put(serve_queries_);
}

void TimeSeriesShard::load_bins(const unsigned char* data, std::size_t size) {
  std::size_t cur = 0;
  const auto need = [&](std::size_t n) {
    if (cur + n > size) {
      throw IoError("time-series checkpoint blob truncated");
    }
  };
  const auto get_u64 = [&]() {
    need(8);
    const std::uint64_t v = load<std::uint64_t>(data + cur);
    cur += 8;
    return v;
  };
  const auto get_i64 = [&]() {
    need(8);
    const std::int64_t v = load<std::int64_t>(data + cur);
    cur += 8;
    return v;
  };
  if (get_i64() != start_.as_micros() || get_i64() != end_.as_micros() ||
      get_i64() != resolution_.as_micros() || get_u64() != samples_.size()) {
    throw IoError(
        "time-series checkpoint geometry does not match this run's "
        "horizon/resolution");
  }
  const auto take = [&](std::vector<std::uint64_t>& bins) {
    for (std::uint64_t& v : bins) v = get_u64();
  };
  const auto take_family = [&](std::vector<std::vector<std::uint64_t>>& f) {
    if (get_u64() != f.size()) {
      throw IoError("time-series checkpoint family count mismatch");
    }
    for (auto& bins : f) take(bins);
  };
  take(samples_);
  take(transitions_);
  take_family(state_entered_);
  take(episodes_opened_);
  take(episodes_closed_);
  take(episode_us_);
  take_family(episode_buckets_);
  take(sensor_gaps_);
  take(sensor_gap_us_);
  take_family(faults_);
  take(serve_ingests_);
  take(serve_queries_);
  if (cur != size) {
    throw IoError("time-series checkpoint blob has trailing bytes");
  }
  // The bin cache describes pre-load state; invalidate it.
  pending_samples_ = 0;
  cached_lo_ = 1;
  cached_hi_ = 0;
}

void TimeSeriesShard::write_series(MetricsWriterV1& w,
                                   const Labels& extra) const {
  flush_pending();
  // Emits one cumulative step sample per bin with activity; `scale`
  // converts the integer accumulator into the stored value (e.g. us ->
  // minutes). All-zero series are omitted entirely.
  const auto emit = [&](std::string_view base, const Labels& own,
                        SeriesKind kind,
                        const std::vector<std::uint64_t>& bins, double scale) {
    bool any = false;
    for (const std::uint64_t v : bins) {
      if (v != 0) {
        any = true;
        break;
      }
    }
    if (!any) return;
    const std::uint32_t id =
        w.series_id(series_string(base, merge_labels(own, extra)), kind);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] == 0) continue;
      cum += bins[i];
      w.append(id, bin_end(i), static_cast<double>(cum) * scale);
    }
  };

  emit("detector.samples", {}, SeriesKind::kCounter, samples_, 1.0);
  emit("detector.transitions", {}, SeriesKind::kCounter, transitions_, 1.0);
  for (std::size_t s = 0; s < state_entered_.size(); ++s) {
    emit("detector.state_entered",
         {{"state", state_name(static_cast<int>(s) + 1)}},
         SeriesKind::kCounter, state_entered_[s], 1.0);
  }
  emit("detector.episodes_opened", {}, SeriesKind::kCounter, episodes_opened_,
       1.0);
  emit("detector.episodes_closed", {}, SeriesKind::kCounter, episodes_closed_,
       1.0);
  emit("detector.sensor_gaps", {}, SeriesKind::kCounter, sensor_gaps_, 1.0);
  emit("detector.sensor_gap_us", {}, SeriesKind::kCounter, sensor_gap_us_,
       1.0);
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    emit("fault.injected", {{"kind", fault_kind_name(static_cast<int>(k))}},
         SeriesKind::kCounter, faults_[k], 1.0);
  }
  emit("serve.ingest_events", {}, SeriesKind::kCounter, serve_ingests_, 1.0);
  emit("serve.queries", {}, SeriesKind::kCounter, serve_queries_, 1.0);
  emit("detector.episode_minutes.count", {}, SeriesKind::kHistCount,
       episodes_closed_, 1.0);
  emit("detector.episode_minutes.sum", {}, SeriesKind::kHistSum, episode_us_,
       1.0 / 60e6);
  const auto& bounds = episode_minute_bounds();
  for (std::size_t k = 0; k < episode_buckets_.size(); ++k) {
    const std::string le =
        k < bounds.size() ? format_bound(bounds[k]) : std::string("+inf");
    emit("detector.episode_minutes.bucket", {{"le", le}},
         SeriesKind::kHistBucket, episode_buckets_[k], 1.0);
  }
}

namespace detail {
constinit thread_local TimeSeriesShard* t_ts_shard = nullptr;
}  // namespace detail

TimeSeriesScope::TimeSeriesScope(TimeSeriesShard* shard)
    : previous_(detail::t_ts_shard) {
  detail::t_ts_shard = shard;
}

TimeSeriesScope::~TimeSeriesScope() { detail::t_ts_shard = previous_; }

void write_registry_snapshot(const MetricRegistry& registry,
                             const std::string& path, sim::SimTime at) {
  const sim::SimDuration bin = sim::SimDuration::hours(1);
  MetricsWriterV1 w(path, at, at + bin, bin);
  const auto emit = [&](const std::string& name, SeriesKind kind,
                        double value) {
    w.append(w.series_id(name, kind), at, value);
  };
  for (const auto& s : registry.snapshot()) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        emit(s.series(), SeriesKind::kCounter, s.value);
        break;
      case MetricSample::Kind::kGauge:
        emit(s.series(), SeriesKind::kGauge, s.value);
        break;
      case MetricSample::Kind::kHistogram:
        emit(series_string(s.name + ".count", s.labels),
             SeriesKind::kHistCount, static_cast<double>(s.count));
        emit(series_string(s.name + ".sum", s.labels), SeriesKind::kHistSum,
             s.sum);
        for (std::size_t k = 0; k < s.buckets.size(); ++k) {
          if (s.buckets[k] == 0) continue;
          const std::string le = k < s.bounds.size()
                                     ? format_bound(s.bounds[k])
                                     : std::string("+inf");
          emit(series_string(s.name + ".bucket",
                             merge_labels(s.labels, {{"le", le}})),
               SeriesKind::kHistBucket, static_cast<double>(s.buckets[k]));
        }
        break;
    }
  }
  w.finish();
}

}  // namespace fgcs::obs
