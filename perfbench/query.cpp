// The query workload: the read side of the trace layer that sweep writes.
//
// Set-up spills a 32,000-machine x 28-day fleet -- about 147 MB of v2
// segments, over 4x a 32 MiB L3 -- with up to four threads and checkpoints
// off (sweep measures those), and opens it. One client then runs a closed
// loop of query::SegmentQuery::run with one scan worker over a fixed cycle
// of predicates: full scans ("all"), 1% machine ranges at rotating
// offsets, one-day time windows and cause filters. Machine ranges exercise
// zone-map pushdown; full scans bypass it, and so do time windows, because
// blocks are machine-grouped and each spans the whole horizon. 28 days,
// not the one-day scale demo, give Figure 6 its weekend class and the
// training fold machines with enough history to do work.
//
// throughput_per_s is full-scan records/s, ops_per_s all queries/s, and
// the latency percentiles cover the selective queries. Every answer is
// checked against the same predicate run with pushdown disabled.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/util/parallel.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace fleet = fgcs::fleet;
namespace query = fgcs::query;

constexpr std::uint32_t kMachines = 32000;
constexpr std::uint32_t kDays = 28;
constexpr int kSetups = 2;
constexpr std::size_t kMinSelective = 1000;
constexpr std::uint32_t kRangeWidth = kMachines / 100;
constexpr std::uint32_t kRangeOffsets = 16;
constexpr std::uint32_t kRangeStride =
    (kMachines - kRangeWidth) / kRangeOffsets;
constexpr std::uint32_t kWindowDays = 7;
constexpr std::uint8_t kCauses[] = {3, 5, 3, 4};
constexpr std::int64_t kDayUs = 86'400'000'000;
// One cycle: a full scan, then 66 selective queries -- 58 machine ranges,
// 4 one-day windows and 4 cause filters (S3, S5, S3, S4). Selective shares
// of 88/6/6% put the p50 deep inside the machine-range class and the p99
// inside cause=S3, the slowest selective query (no block skipped, most
// records matched), away from every class boundary.
constexpr std::uint64_t kCycle = 67;
constexpr std::size_t kTracedCycles = 8;

enum class Kind : std::uint8_t { kAll, kMachine, kTime, kCause };
constexpr const char* kKindNames[] = {"all", "machine", "time", "cause"};

struct Planned {
  Kind kind = Kind::kAll;
  std::uint32_t key = 0;  // which of the cycle's distinct predicates
  query::Predicate predicate;
};

class Planner {
 public:
  explicit Planner(std::uint64_t seed)
      : range_base_(static_cast<std::uint32_t>(mix64(seed) % kRangeStride)),
        first_day_(static_cast<std::uint32_t>(mix64(~seed) % kDays)) {}

  Planned next() {
    Planned p;
    const std::uint64_t slot = n_++ % kCycle;
    if (slot == 0) return p;  // the full scan
    const std::uint64_t i = slot - 1;
    if (i % 8 != 3) {
      const auto k = static_cast<std::uint32_t>(ranges_++ % kRangeOffsets);
      p.kind = Kind::kMachine;
      p.key = 1 + k;
      p.predicate.has_machine = true;
      p.predicate.machine_lo = range_base_ + k * kRangeStride;
      p.predicate.machine_hi = p.predicate.machine_lo + kRangeWidth;
    } else if ((i / 8) % 2 == 0) {
      const auto k = static_cast<std::uint32_t>(windows_++ % kWindowDays);
      const std::int64_t day = (first_day_ + 4 * k) % kDays;
      p.kind = Kind::kTime;
      p.key = 1 + kRangeOffsets + k;
      p.predicate.has_time = true;
      p.predicate.time_lo_us = day * kDayUs;
      p.predicate.time_hi_us = (day + 1) * kDayUs;
    } else {
      const std::uint8_t cause = kCauses[causes_++ % std::size(kCauses)];
      p.kind = Kind::kCause;
      p.key = 1 + kRangeOffsets + kWindowDays + (cause - 3u);
      p.predicate.has_cause = true;
      p.predicate.cause = cause;
    }
    return p;
  }

 private:
  std::uint32_t range_base_;
  std::uint32_t first_day_;
  std::uint64_t n_ = 0;
  std::uint64_t ranges_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t causes_ = 0;
};

/// A digest of every aggregate the query-pushdown oracle compares: all of
/// QueryResult but the scan counters, plus records_matched.
std::uint64_t result_digest(const query::QueryResult& r) {
  std::uint64_t h = 0;
  const auto put = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  const auto put_f = [&put](double v) { put(bits_of(v)); };
  const auto& t = r.table2;
  for (const auto* range :
       {&t.total, &t.cpu_contention, &t.mem_contention, &t.urr}) {
    put(static_cast<std::uint64_t>(range->min));
    put(static_cast<std::uint64_t>(range->max));
    put_f(range->mean);
  }
  for (const double v : {t.cpu_pct_min, t.cpu_pct_max, t.mem_pct_min,
                         t.mem_pct_max, t.urr_pct_min, t.urr_pct_max,
                         t.reboot_fraction_of_urr}) {
    put_f(v);
  }
  put(t.machines);
  for (const auto* c : {&r.intervals.weekday, &r.intervals.weekend}) {
    put(c->count);
    for (const double v : {c->mean_hours, c->frac_under_5min,
                           c->frac_5min_to_2h, c->frac_2h_to_4h,
                           c->frac_4h_to_6h}) {
      put_f(v);
    }
  }
  for (const auto* rows : {&r.hourly.weekday, &r.hourly.weekend}) {
    for (const auto& row : *rows) {
      for (const double v : {row.mean, row.min, row.max, row.stddev}) {
        put_f(v);
      }
    }
  }
  put(static_cast<std::uint64_t>(r.hourly.weekday_days));
  put(static_cast<std::uint64_t>(r.hourly.weekend_days));
  put_f(r.relative_deviation_weekday);
  put_f(r.relative_deviation_weekend);
  put(r.training.machines);
  put(r.training.machines_with_history);
  put(r.training.gap_samples);
  put_f(r.training.availability_sum);
  put_f(r.training.occurrences_sum);
  put(r.stats.records_matched);
  return h;
}

struct Answer {
  Kind kind = Kind::kAll;
  std::uint32_t key = 0;
  query::Predicate predicate;
  std::uint64_t took = 0;  // ticks
  std::uint64_t digest = 0;
  query::ScanStats stats;
};

/// Runs the planned queries closed loop -- each sent when the previous
/// answer is back -- until `stop` says so. With a tracer, each
/// SegmentQuery::run sits in a span.
template <typename Stop>
std::vector<Answer> run_loop(const query::SegmentQuery& segments,
                             fgcs::util::ThreadPool& pool, std::uint64_t seed,
                             Tracer* tracer, Stop&& stop) {
  Planner planner(seed);
  std::vector<Answer> answers;
  answers.reserve(4096);
  const SpanScope root(tracer, "bench.loop");
  while (!stop(answers)) {
    const Planned p = planner.next();
    query::QueryOptions options;
    options.predicate = p.predicate;
    options.pool = &pool;
    query::QueryResult result;
    const std::uint64_t t0 = ticks();
    {
      const SpanScope span(tracer, "query.run");
      result = segments.run(options);
    }
    const std::uint64_t took = ticks() - t0;
    answers.push_back(Answer{p.kind, p.key, p.predicate, took,
                             result_digest(result), result.stats});
  }
  return answers;
}

/// Every answer against the same predicate run with pushdown disabled --
/// the brute-force scan the query-pushdown oracle trusts -- one oracle run
/// per distinct predicate. Returns the answers that differ.
std::uint64_t check_answers(const query::SegmentQuery& segments,
                            fgcs::util::ThreadPool& pool,
                            const std::vector<Answer>& answers,
                            std::map<std::uint32_t, std::uint64_t>& oracle) {
  std::uint64_t bad = 0;
  for (const Answer& a : answers) {
    auto it = oracle.find(a.key);
    if (it == oracle.end()) {
      query::QueryOptions options;
      options.predicate = a.predicate;
      options.pool = &pool;
      options.disable_pruning = true;
      it = oracle.emplace(a.key, result_digest(segments.run(options))).first;
    }
    if (a.digest != it->second) ++bad;
  }
  return bad;
}

struct Spill {
  std::unique_ptr<query::SegmentQuery> segments;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> setups;  // ticks per set-up
  std::vector<std::uint64_t> opens;   // ticks per SegmentQuery constructor
};

/// One set-up: spill the fleet and open its segments.
void set_up(const Context& ctx, Spill& spill) {
  const std::string dir = ctx.work_dir + "/query";
  spill.segments.reset();
  fs::remove_all(dir);
  const std::uint64_t t0 = ticks();
  fleet::FleetConfig config;
  config.testbed.machines = kMachines;
  config.testbed.days = static_cast<int>(kDays);
  config.testbed.seed = ctx.seed;
  config.threads = ctx.threads;
  config.spill_dir = dir;
  config.checkpoint = false;
  const fleet::FleetResult result = fleet::run_fleet(config);
  const std::uint64_t t1 = ticks();
  spill.segments = std::make_unique<query::SegmentQuery>(
      query::SegmentQuery::list_segments(dir));
  const std::uint64_t t2 = ticks();
  spill.setups.push_back(t2 - t0);
  spill.opens.push_back(t2 - t1);
  spill.records = result.total_records;
  spill.bytes = dir_bytes(dir);
}

/// The share of selective queries ranked within max(2, n/200) of the one
/// at quantile q that share its predicate class: 1.0 means the percentile
/// sits well inside one class, away from a class boundary.
double class_purity(std::vector<std::pair<double, Kind>> ranked, double q,
                    Kind& kind) {
  if (ranked.empty()) return 0.0;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  const std::size_t n = ranked.size();
  const auto at =
      static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  const std::size_t half = std::max<std::size_t>(2, n / 200);
  const std::size_t lo = at > half ? at - half : 0;
  const std::size_t hi = std::min(n - 1, at + half);
  std::size_t same = 0;
  for (std::size_t i = lo; i <= hi; ++i) {
    if (ranked[i].second == ranked[at].second) ++same;
  }
  kind = ranked[at].second;
  return static_cast<double>(same) / static_cast<double>(hi - lo + 1);
}

Result measure(const Context& ctx) {
  Result res;
  Spill spill;
  for (int i = 0; i < kSetups; ++i) set_up(ctx, spill);
  fgcs::util::ThreadPool pool(0);  // one scan worker: the calling thread
  std::vector<Answer> answers;
  std::uint64_t loop_ticks = 0;
  double peak_mb = 0.0;
  {
    PeakRss rss;
    std::size_t selective = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t loop0 = ticks();
    answers = run_loop(*spill.segments, pool, ctx.seed, nullptr,
                       [&](const std::vector<Answer>& done) {
                         if (!done.empty() && done.back().kind != Kind::kAll) {
                           ++selective;
                         }
                         return selective >= kMinSelective &&
                                seconds_since(t0) >= ctx.seconds;
                       });
    loop_ticks = ticks() - loop0;
    peak_mb = rss.peak_mb();
  }
  std::map<std::uint32_t, std::uint64_t> oracle;
  res.attempted = answers.size();
  const std::uint64_t bad =
      check_answers(*spill.segments, pool, answers, oracle);
  if (bad != 0) {
    res.fail(bad, std::to_string(bad) +
                      " answer(s) differ from the unpruned scan");
  }

  const double npt = ns_per_tick();
  std::array<std::vector<double>, 4> by_kind;
  std::vector<double> selective_us;
  std::vector<double> scan_rates;
  std::vector<std::pair<double, Kind>> ranked;
  for (const Answer& a : answers) {
    const double us = static_cast<double>(a.took) * npt / 1e3;
    by_kind[static_cast<std::size_t>(a.kind)].push_back(us);
    if (a.kind == Kind::kAll) {
      scan_rates.push_back(static_cast<double>(a.stats.records_scanned) /
                           (us / 1e6));
    } else {
      selective_us.push_back(us);
      ranked.emplace_back(us, a.kind);
    }
  }
  res.metric("setup_s", median(to_seconds(spill.setups, npt)), "s");
  res.metric("throughput_per_s", median(scan_rates), "1/s");
  res.metric("ops_per_s",
             static_cast<double>(answers.size()) /
                 (static_cast<double>(loop_ticks) * npt / 1e9),
             "1/s");
  res.metric("latency_p50_us", quantile(selective_us, 0.5), "us");
  res.metric("latency_p99_us", quantile(selective_us, 0.99), "us");
  res.metric("peak_rss_mb", peak_mb, "MB");
  res.detail("scan_records_per_s", median(scan_rates), "1/s");
  res.detail("queries", static_cast<double>(answers.size()), "count");
  res.detail("selective_queries", static_cast<double>(selective_us.size()),
             "count");
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    res.detail(std::string("p50_us.") + kKindNames[k],
               quantile(by_kind[k], 0.5), "us");
  }
  for (const double q : {0.5, 0.99}) {
    Kind kind = Kind::kAll;
    const double purity = class_purity(ranked, q, kind);
    char note[96];
    std::snprintf(note, sizeof note,
                  "selective p%g is a %s query; class purity around it %.2f",
                  q * 100, kKindNames[static_cast<std::size_t>(kind)], purity);
    res.notes.push_back(note);
  }
  res.detail("segment_bytes", static_cast<double>(spill.bytes), "B");
  res.detail("records", static_cast<double>(spill.records), "count");
  return res;
}

/// Reads all six columns of every record through TraceView::columns: the
/// decode floor under every scan. Returns the records read.
std::uint64_t decode_walk(const query::SegmentQuery& segments,
                          Tracer& tracer) {
  const SpanScope root(&tracer, "bench.decode");
  std::uint64_t records = 0;
  std::uint64_t acc = 0;
  double facc = 0.0;
  for (std::size_t s = 0; s < segments.segment_count(); ++s) {
    const SpanScope span(&tracer, "trace.decode");
    const fgcs::trace::TraceView& view = segments.segment(s);
    for (std::size_t b = 0; b < view.block_count(); ++b) {
      const auto c = view.columns(b);
      for (std::uint64_t i = 0; i < c.count; ++i) {
        acc += c.machine_at(i) +
               static_cast<std::uint64_t>(c.start_at(i) ^ c.end_at(i)) +
               c.cause_at(i);
        facc += c.host_cpu_at(i) + c.free_mem_at(i);
      }
      records += c.count;
    }
    view.release_pages();
  }
  volatile std::uint64_t sink = acc + static_cast<std::uint64_t>(facc);
  (void)sink;
  return records;
}

Result traced(const Context& ctx) {
  Result res;
  Spill spill;
  for (int i = 0; i < kSetups; ++i) set_up(ctx, spill);
  fgcs::util::ThreadPool pool(0);
  const std::size_t n = kTracedCycles * kCycle;
  const auto stop_at_n = [n](const std::vector<Answer>& done) {
    return done.size() >= n;
  };
  const std::uint64_t u0 = ticks();
  const std::vector<Answer> untraced =
      run_loop(*spill.segments, pool, ctx.seed, nullptr, stop_at_n);
  const std::uint64_t untraced_ticks = ticks() - u0;
  Tracer tracer(n + spill.segments->segment_count() + 16);
  const std::vector<Answer> answers =
      run_loop(*spill.segments, pool, ctx.seed, &tracer, stop_at_n);
  const std::uint64_t decoded = decode_walk(*spill.segments, tracer);

  std::map<std::uint32_t, std::uint64_t> oracle;
  res.attempted = untraced.size() + answers.size();
  const std::uint64_t bad =
      check_answers(*spill.segments, pool, untraced, oracle) +
      check_answers(*spill.segments, pool, answers, oracle);
  if (bad != 0) {
    res.fail(bad, std::to_string(bad) +
                      " answer(s) differ from the unpruned scan");
  }

  const double npt = ns_per_tick();
  const Totals totals = summarize({&tracer}, npt);
  std::array<std::uint64_t, 4> blocks{};
  std::array<std::uint64_t, 4> skipped{};
  std::array<std::uint64_t, 4> scanned{};
  std::array<std::uint64_t, 4> matched{};
  double scan_ns = 0.0;
  for (const Answer& a : answers) {
    const auto k = static_cast<std::size_t>(a.kind);
    blocks[k] += a.stats.blocks_total;
    skipped[k] += a.stats.blocks_skipped;
    scanned[k] += a.stats.records_scanned;
    matched[k] += a.stats.records_matched;
    if (a.kind == Kind::kAll) scan_ns += static_cast<double>(a.took) * npt;
  }
  const double md = static_cast<double>(kMachines) * kDays;
  std::vector<double> open_ms;
  for (const std::uint64_t t : spill.opens) {
    open_ms.push_back(static_cast<double>(t) * npt / 1e6);
  }
  res.metric("trace.open_ms", median(open_ms), "ms");
  res.metric("trace.decode_ns_per_record",
             busy_ns(totals, "trace.decode") / static_cast<double>(decoded),
             "ns");
  res.metric("query.scan_ns_per_record",
             scan_ns / static_cast<double>(scanned[0]), "ns");
  for (std::size_t k = 1; k < 4; ++k) {
    res.metric(std::string("query.blocks_skipped_frac.") + kKindNames[k],
               static_cast<double>(skipped[k]) /
                   static_cast<double>(blocks[k]),
               "ratio");
    res.metric(std::string("query.matched_per_scanned.") + kKindNames[k],
               static_cast<double>(matched[k]) /
                   static_cast<double>(scanned[k]),
               "ratio");
  }
  res.metric("core.records_per_md", static_cast<double>(spill.records) / md,
             "count");
  res.metric("bench.disk_bytes_per_md",
             static_cast<double>(spill.bytes) / md, "B");
  res.metric("bench.unaccounted_frac", unaccounted_frac(totals), "ratio");
  res.metric("bench.tracing_overhead_frac",
             busy_ns(totals, "bench.loop") /
                     (static_cast<double>(untraced_ticks) * npt) -
                 1.0,
             "ratio");
  res.detail("setup_s", median(to_seconds(spill.setups, npt)), "s");
  res.detail("queries_per_loop", static_cast<double>(n), "count");
  write_spans(ctx.spans_path(), {&tracer}, npt);
  return res;
}

}  // namespace

Result run_query(const Context& ctx) {
  return ctx.traced ? traced(ctx) : measure(ctx);
}

}  // namespace perfbench
