// The serve workload: fgcs::serve's ingest, copy-on-write publish and
// concurrent reads -- the only workload that runs them.
//
// Set-up simulates a 2,000-machine x 92-day fleet, orders its episodes by
// start time (the order they arrive live, which makes the copy-on-write
// clones real work), and pre-generates a zipf:1.1 query stream, because
// LoadGenerator::query costs about as much as the query it generates.
//
// The measured run has three phases:
//   ingest  (30%) one thread ingests every episode into a fresh
//           AvailabilityFeed at full speed, alone, round after round.
//           throughput_per_s is ingest events/s, the median over rounds.
//   mixed   (30%) the same rounds with one reader querying the feed's
//           latest snapshot from a second thread throughout. Its figures
//           are printed, not gated: how much the two threads slow each
//           other depends on where the host places them: ingest beside
//           the reader ran 1.2M to 3.5M events/s between runs of one
//           build on a 4-vCPU VM.
//   read    (40%) the reader alone on the final snapshot, in slices.
//           ops_per_s is its query rate; latency_p50/p99_us are the
//           percentiles of its request times; each the median over the
//           slices.
// The reader runs a closed loop: it sends the next query when the
// previous answer is back, as a scheduler placing guest jobs would, and
// its requests are 16 QueryEngine::query calls -- the candidate machines
// of one job -- because one ~30 ns call is too short to time alone (a
// clock read costs a quarter of it). An open loop timed from due times
// would charge one scheduling stall of the host to every query due behind
// it, so on a shared VM its tail would measure the host more than serve.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/predict/semi_markov.hpp"
#include "fgcs/serve/feed.hpp"
#include "fgcs/serve/load.hpp"
#include "fgcs/serve/query.hpp"
#include "fgcs/trace/index.hpp"

namespace perfbench {
namespace {

namespace fleet = fgcs::fleet;
namespace serve = fgcs::serve;
namespace trace = fgcs::trace;

constexpr std::uint32_t kMachines = 2000;
constexpr int kDays = 92;
constexpr std::size_t kStream = std::size_t{1} << 20;
constexpr int kSetups = 3;
constexpr std::size_t kMinRounds = 3;
constexpr int kReadSlices = 8;
constexpr std::size_t kRequest = 16;  // queries per timed request
constexpr std::uint64_t kPublishEvery = 1024;  // FeedConfig's default
constexpr std::size_t kSampleStride = 8191;
constexpr std::size_t kMaxSamples = 256;

struct Sampled {
  std::size_t index = 0;
  serve::QueryAnswer answer;
};

struct Inputs {
  trace::TraceSet trace;                              // machine-major
  std::vector<trace::UnavailabilityRecord> arrivals;  // by start time
  std::vector<serve::ServeQuery> stream;
};

std::uint64_t set_up(const Context& ctx, Inputs& in) {
  in = Inputs{};
  const std::uint64_t t0 = ticks();
  fleet::FleetConfig config;
  config.testbed.machines = kMachines;
  config.testbed.days = kDays;
  config.testbed.seed = ctx.seed;
  config.threads = ctx.threads;
  fleet::FleetResult result = fleet::run_fleet(config);
  in.trace = std::move(*result.trace);
  const auto records = in.trace.records();
  in.arrivals.assign(records.begin(), records.end());
  std::stable_sort(
      in.arrivals.begin(), in.arrivals.end(),
      [](const auto& a, const auto& b) { return a.start < b.start; });
  serve::LoadSpec spec;
  spec.machines = kMachines;
  spec.queries = kStream;
  spec.mix = serve::MixSpec::parse("zipf:1.1");
  spec.at_hours = 24.0 * kDays + 1.0;  // past every episode, as `fgcs serve`
  spec.seed = ctx.seed;
  const serve::LoadGenerator generator(spec);
  in.stream.resize(kStream);
  for (std::size_t i = 0; i < kStream; ++i) in.stream[i] = generator.query(i);
  return ticks() - t0;
}

/// What the reader records besides its answers.
struct ReaderPlan {
  /// Time the snapshot pin and the evaluation apart (traced runs).
  bool split = false;
  /// Ticks per request of kRequest queries, when set.
  std::vector<std::uint32_t>* latency = nullptr;
  std::vector<Sampled>* samples = nullptr;
};

struct ReaderOut {
  std::uint64_t issued = 0;
  std::uint64_t pin = 0;   // ticks in pin(), split runs
  std::uint64_t eval = 0;  // ticks evaluating on the pinned snapshot
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double p_sum = 0.0;
  std::string error;
};

/// The closed-loop reader: each query of the stream, from its start, is
/// sent when the previous answer is back, until `stop`.
void read_loop(const serve::QueryEngine& engine,
               const std::vector<serve::ServeQuery>& stream,
               const std::atomic<bool>& stop, const ReaderPlan& plan,
               ReaderOut& out) {
  try {
    std::size_t index = 0;
    out.begin = ticks();
    std::uint64_t request = out.begin;
    while (!stop.load(std::memory_order_relaxed)) {
      const serve::ServeQuery& q = stream[index];
      serve::QueryAnswer answer;
      if (plan.split) {
        const std::uint64_t t0 = ticks();
        const auto snapshot = engine.pin();
        const std::uint64_t t1 = ticks();
        answer = engine.query(*snapshot, q);
        const std::uint64_t t2 = ticks();
        out.pin += t1 - t0;
        out.eval += t2 - t1;
      } else {
        answer = engine.query(q);
      }
      out.p_sum += answer.p_available;
      if (plan.samples != nullptr && index % kSampleStride == 0 &&
          plan.samples->size() < kMaxSamples) {
        plan.samples->push_back({index, answer});
      }
      ++out.issued;
      if (++index == stream.size()) index = 0;
      if (plan.latency != nullptr && out.issued % kRequest == 0) {
        const std::uint64_t now = ticks();
        plan.latency->push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(now - request, UINT32_MAX)));
        request = now;
      }
    }
    out.end = ticks();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// Sets the reader's stop flag when the scope that owns the reader
/// thread unwinds; declared after the thread, it runs before the join.
struct StopOnExit {
  std::atomic<bool>& flag;
  ~StopOnExit() { flag.store(true); }
};

struct IngestRound {
  std::uint64_t wall = 0;  // ticks
  std::uint64_t events = 0;
  std::uint64_t publishes = 0;
};

/// Ingest with publish() called explicitly at the default cadence, each
/// call in a span, and the ingests between publishes as one aggregate.
void traced_ingest(const std::vector<trace::UnavailabilityRecord>& arrivals,
                   serve::AvailabilityFeed& feed, Tracer& tracer) {
  const SpanScope root(&tracer, "bench.ingest");
  for (std::size_t i = 0; i < arrivals.size(); i += kPublishEvery) {
    const std::size_t end =
        std::min<std::size_t>(arrivals.size(), i + kPublishEvery);
    const std::uint64_t t0 = ticks();
    for (std::size_t j = i; j < end; ++j) feed.ingest(arrivals[j]);
    const std::uint64_t t1 = ticks();
    tracer.record("serve.ingest", t0, t1, t1 - t0, end - i, tracer.current());
    if (end - i == kPublishEvery) {
      const SpanScope span(&tracer, "serve.publish");
      feed.publish();
    }
  }
  const SpanScope span(&tracer, "serve.publish");
  feed.publish();
}

/// One round: a fresh feed, every arrival ingested at full speed on this
/// thread. Given a plan, the reader queries the feed on another thread
/// for the round's duration.
IngestRound ingest_round(const Inputs& in,
                         std::unique_ptr<serve::AvailabilityFeed>& feed,
                         const ReaderPlan* plan, ReaderOut* out,
                         Tracer* tracer) {
  serve::FeedConfig config;
  config.machines = kMachines;
  config.horizon_start = fgcs::sim::SimTime::epoch();
  config.publish_every = tracer == nullptr ? kPublishEvery : 0;
  feed = std::make_unique<serve::AvailabilityFeed>(config);
  const serve::QueryEngine engine(*feed);
  std::atomic<bool> stop{false};
  IngestRound round;
  {
    std::jthread reader;
    if (plan != nullptr) {
      reader = std::jthread(
          [&] { read_loop(engine, in.stream, stop, *plan, *out); });
    }
    const StopOnExit stopper{stop};
    const std::uint64_t t0 = ticks();
    if (tracer == nullptr) {
      for (const auto& record : in.arrivals) feed->ingest(record);
      feed->publish();
    } else {
      traced_ingest(in.arrivals, *feed, *tracer);
    }
    round.wall = ticks() - t0;
  }
  round.events = feed->events_ingested();
  round.publishes = feed->snapshots_published();
  return round;
}

/// The reader alone on `feed`'s latest snapshot for `seconds`.
ReaderOut read_alone(const Inputs& in, const serve::AvailabilityFeed& feed,
                     double seconds, const ReaderPlan& plan) {
  const serve::QueryEngine engine(feed);
  std::atomic<bool> stop{false};
  ReaderOut out;
  {
    std::jthread reader(
        [&] { read_loop(engine, in.stream, stop, plan, out); });
    const StopOnExit stopper{stop};
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  return out;
}

/// Answers at fixed stream positions on the final snapshot, from this
/// thread.
std::vector<Sampled> fixed_sample(const Inputs& in,
                                  const serve::AvailabilityFeed& feed) {
  const serve::QueryEngine engine(feed);
  std::vector<Sampled> out;
  for (std::size_t i = 0; i < in.stream.size(); i += kSampleStride) {
    out.push_back({i, engine.query(in.stream[i])});
  }
  return out;
}

/// Each answer against predict::SemiMarkovPredictor trained on every
/// ingested episode -- the serve-incremental oracle's contract: a query
/// past a machine's last episode gets the batch predictor's answer bit for
/// bit. Returns the answers that differ.
std::uint64_t check_answers(const Inputs& in,
                            const std::vector<Sampled>& sampled) {
  const trace::TraceIndex index(in.trace);
  const trace::TraceCalendar calendar;  // the feed's default start day
  fgcs::predict::SemiMarkovPredictor batch;
  batch.attach(index, calendar);
  std::uint64_t bad = 0;
  for (const Sampled& s : sampled) {
    const serve::ServeQuery& q = in.stream[s.index];
    const fgcs::predict::PredictionQuery pq{q.machine, q.at, q.window};
    if (batch.predict_availability(pq) != s.answer.p_available ||
        batch.predict_occurrences(pq) != s.answer.expected_occurrences) {
      ++bad;
    }
  }
  return bad;
}

void check_round(Result& res, const Inputs& in, const IngestRound& round) {
  if (round.events != in.arrivals.size()) {
    res.fail(1, "feed ingested " + std::to_string(round.events) + " of " +
                    std::to_string(in.arrivals.size()) + " episodes");
  }
}

void check_reader(Result& res, const ReaderOut& out) {
  res.attempted += out.issued;
  if (!out.error.empty()) res.fail(1, "reader: " + out.error);
}

void check_sample(Result& res, const Inputs& in,
                  const std::vector<Sampled>& sampled) {
  res.attempted += sampled.size();
  const std::uint64_t bad = check_answers(in, sampled);
  if (bad != 0) {
    res.fail(bad, std::to_string(bad) +
                      " sampled answer(s) differ from SemiMarkovPredictor");
  }
}

double per_second(std::uint64_t n, std::uint64_t ticks_taken, double npt) {
  return static_cast<double>(n) /
         (static_cast<double>(ticks_taken) * npt / 1e9);
}

/// Request-time percentiles of successive rounds or slices, in us.
struct Percentiles {
  std::vector<double> p50_us;
  std::vector<double> p99_us;

  /// Takes one round's request ticks and empties `latency`.
  void add(std::vector<std::uint32_t>& latency) {
    const double npt = ns_per_tick();
    p50_us.push_back(quantile(latency, 0.5) * npt / 1e3);
    p99_us.push_back(quantile(latency, 0.99) * npt / 1e3);
    latency.clear();
  }
};

Result measure(const Context& ctx) {
  Result res;
  Inputs in;
  std::vector<std::uint64_t> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(set_up(ctx, in));
  std::unique_ptr<serve::AvailabilityFeed> feed;
  std::vector<IngestRound> alone;
  std::vector<IngestRound> mixed;
  std::vector<ReaderOut> slices;
  Percentiles during_ingest;
  Percentiles on_final;
  std::vector<Sampled> samples;
  samples.reserve(kMaxSamples);
  std::vector<std::uint32_t> latency;
  ReaderPlan plan;
  plan.latency = &latency;
  double peak_mb = 0.0;
  {
    const PeakRss rss;
    auto t0 = std::chrono::steady_clock::now();
    do {
      alone.push_back(ingest_round(in, feed, nullptr, nullptr, nullptr));
      check_round(res, in, alone.back());
    } while (alone.size() < kMinRounds ||
             seconds_since(t0) < 0.3 * ctx.seconds);

    t0 = std::chrono::steady_clock::now();
    do {
      ReaderOut out;
      mixed.push_back(ingest_round(in, feed, &plan, &out, nullptr));
      check_round(res, in, mixed.back());
      check_reader(res, out);
      during_ingest.add(latency);
    } while (mixed.size() < kMinRounds ||
             seconds_since(t0) < 0.3 * ctx.seconds);

    plan.samples = &samples;
    for (int k = 0; k < kReadSlices; ++k) {
      slices.push_back(
          read_alone(in, *feed, 0.4 * ctx.seconds / kReadSlices, plan));
      check_reader(res, slices.back());
      on_final.add(latency);
    }
    peak_mb = rss.peak_mb();
  }
  // Output checks on the final snapshot: a fixed sample answered here,
  // and the answers the reader gave at sampled positions.
  std::vector<Sampled> checked = fixed_sample(in, *feed);
  checked.insert(checked.end(), samples.begin(), samples.end());
  check_sample(res, in, checked);

  const double npt = ns_per_tick();
  std::vector<double> ingest_rates;
  for (const IngestRound& r : alone) {
    ingest_rates.push_back(per_second(r.events, r.wall, npt));
  }
  std::vector<double> mixed_rates;
  for (const IngestRound& r : mixed) {
    mixed_rates.push_back(per_second(r.events, r.wall, npt));
  }
  std::vector<double> read_rates;
  for (const ReaderOut& s : slices) {
    read_rates.push_back(per_second(s.issued, s.end - s.begin, npt));
  }
  res.metric("setup_s", median(to_seconds(setups, npt)), "s");
  res.metric("throughput_per_s", median(ingest_rates), "1/s");
  res.metric("ops_per_s", median(read_rates), "1/s");
  res.metric("latency_p50_us", median(on_final.p50_us), "us");
  res.metric("latency_p99_us", median(on_final.p99_us), "us");
  res.metric("peak_rss_mb", peak_mb, "MB");
  res.detail("ingest_events_per_s", median(ingest_rates), "1/s");
  res.detail("closed_loop_qps", median(read_rates), "1/s");
  res.detail("ingest_events_per_s_with_reader", median(mixed_rates), "1/s");
  res.detail("request_p50_us_during_ingest", median(during_ingest.p50_us),
             "us");
  res.detail("request_p99_us_during_ingest", median(during_ingest.p99_us),
             "us");
  res.detail("queries_per_request", kRequest, "count");
  res.detail("ingest_rounds", static_cast<double>(alone.size()), "count");
  res.detail("mixed_rounds", static_cast<double>(mixed.size()), "count");
  res.detail("events_per_round", static_cast<double>(alone.back().events),
             "count");
  res.detail("snapshot_swaps_per_round",
             static_cast<double>(alone.back().publishes), "count");
  return res;
}

/// The traced run repeats the gated phases. Ingest alone: untraced rounds
/// -- the baseline of the tracing overhead -- then as many traced ones,
/// with publish() called explicitly. Then the reader alone on the final
/// snapshot: plain, then timing each pin and evaluation apart.
Result traced(const Context& ctx) {
  Result res;
  Inputs in;
  std::vector<std::uint64_t> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(set_up(ctx, in));
  std::unique_ptr<serve::AvailabilityFeed> feed;
  std::vector<std::uint64_t> untraced;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const IngestRound round =
        ingest_round(in, feed, nullptr, nullptr, nullptr);
    untraced.push_back(round.wall);
    check_round(res, in, round);
  } while (untraced.size() < kMinRounds ||
           seconds_since(t0) < 0.35 * ctx.seconds);

  Tracer ingest(untraced.size() *
                    (2 * (in.arrivals.size() / kPublishEvery) + 8) +
                16);
  std::vector<std::uint64_t> traced_walls;
  std::uint64_t events = 0;
  std::uint64_t swaps = 0;
  for (std::size_t round_no = 0; round_no < untraced.size(); ++round_no) {
    const IngestRound round =
        ingest_round(in, feed, nullptr, nullptr, &ingest);
    check_round(res, in, round);
    traced_walls.push_back(round.wall);
    events += round.events;
    swaps = round.publishes;
  }

  const ReaderPlan plain;
  ReaderPlan split;
  split.split = true;
  const ReaderOut base = read_alone(in, *feed, 0.15 * ctx.seconds, plain);
  const ReaderOut out = read_alone(in, *feed, 0.15 * ctx.seconds, split);
  check_reader(res, base);
  check_reader(res, out);
  Tracer reader(16);
  const std::int32_t root = reader.record(
      "bench.reader", out.begin, out.end, out.end - out.begin, 1, -1);
  reader.record("serve.pin", out.begin, out.end, out.pin, out.issued, root);
  reader.record("serve.query", out.begin, out.end, out.eval, out.issued,
                root);
  check_sample(res, in, fixed_sample(in, *feed));

  const double npt = ns_per_tick();
  const std::vector<const Tracer*> tracers{&ingest, &reader};
  const Totals totals = summarize(tracers, npt);
  res.metric("serve.ingest_ns_per_event",
             busy_ns(totals, "serve.ingest") / static_cast<double>(events),
             "ns");
  res.metric("serve.publish_us",
             busy_ns(totals, "serve.publish") /
                 static_cast<double>(calls_of(totals, "serve.publish")) / 1e3,
             "us");
  res.metric("serve.snapshot_swaps", static_cast<double>(swaps), "count");
  res.metric("serve.query_ns",
             busy_ns(totals, "serve.query") /
                 static_cast<double>(calls_of(totals, "serve.query")),
             "ns");
  res.metric("serve.pin_ns",
             busy_ns(totals, "serve.pin") /
                 static_cast<double>(calls_of(totals, "serve.pin")),
             "ns");
  res.metric("bench.unaccounted_frac", unaccounted_frac(totals), "ratio");
  res.metric("bench.tracing_overhead_frac",
             median(to_seconds(traced_walls, npt)) /
                     median(to_seconds(untraced, npt)) -
                 1.0,
             "ratio");
  res.detail("setup_s", median(to_seconds(setups, npt)), "s");
  res.detail("ingest_rounds_each", static_cast<double>(untraced.size()),
             "count");
  // The reader's spans are per-call clock reads, not spans around calls,
  // so its overhead is reported apart: split ns/query over plain.
  res.detail("reader_tracing_overhead_frac",
             per_second(base.issued, base.end - base.begin, npt) /
                     per_second(out.issued, out.end - out.begin, npt) -
                 1.0,
             "ratio");
  write_spans(ctx.spans_path(), tracers, npt);
  return res;
}

}  // namespace

Result run_serve(const Context& ctx) {
  return ctx.traced ? traced(ctx) : measure(ctx);
}

}  // namespace perfbench
