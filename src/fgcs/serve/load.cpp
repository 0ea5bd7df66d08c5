#include "fgcs/serve/load.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "fgcs/util/error.hpp"
#include "fgcs/util/rng.hpp"

namespace fgcs::serve {

namespace {

constexpr std::string_view kHeader = "# fgcs-serve-load v1";

[[noreturn]] void mix_fail(std::string_view field, std::string_view why) {
  throw ConfigError("serve mix field " + std::string(field) + ": " +
                    std::string(why));
}

double parse_mix_double(std::string_view field, std::string_view text) {
  if (text.empty()) mix_fail(field, "empty value");
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    mix_fail(field, "not a number: '" + std::string(text) + "'");
  }
  if (!std::isfinite(value)) mix_fail(field, "must be finite");
  return value;
}

std::string format_double(double v) {
  // Shortest exact round-trip, so str() -> parse() is lossless.
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, ptr);
}

[[noreturn]] void line_fail(std::size_t line, std::string_view why) {
  throw ConfigError("serve load line " + std::to_string(line) + ": " +
                    std::string(why));
}

template <typename T>
T parse_uint(std::size_t line, std::string_view key, std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    line_fail(line, std::string(key) + " is not an unsigned integer: '" +
                        std::string(text) + "'");
  }
  return value;
}

double parse_double(std::size_t line, std::string_view key,
                    std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    line_fail(line, std::string(key) + " is not a number: '" +
                        std::string(text) + "'");
  }
  return value;
}

}  // namespace

MixSpec MixSpec::parse(std::string_view text) {
  MixSpec mix;
  if (text == "uniform") {
    mix.kind = Kind::kUniform;
    return mix;
  }
  if (text.rfind("zipf:", 0) == 0) {
    mix.kind = Kind::kZipf;
    mix.zipf_skew = parse_mix_double("zipf-skew", text.substr(5));
    if (mix.zipf_skew <= 0.0 || mix.zipf_skew > 32.0) {
      mix_fail("zipf-skew", "must be in (0, 32]");
    }
    return mix;
  }
  if (text.rfind("sweep:", 0) == 0) {
    mix.kind = Kind::kSweep;
    const std::string_view range = text.substr(6);
    // The separator is the first '-' past position 0, so a leading minus
    // sign is diagnosed as a bad number, not silently split.
    const std::size_t dash = range.find('-', 1);
    if (range.empty() || dash == std::string_view::npos) {
      mix_fail("sweep-range", "expected sweep:<lo>-<hi>, got '" +
                                  std::string(text) + "'");
    }
    mix.sweep_lo_hours = parse_mix_double("sweep-lo", range.substr(0, dash));
    mix.sweep_hi_hours = parse_mix_double("sweep-hi", range.substr(dash + 1));
    if (mix.sweep_lo_hours <= 0.0) mix_fail("sweep-lo", "must be positive");
    if (mix.sweep_hi_hours < mix.sweep_lo_hours) {
      mix_fail("sweep-hi", "must be >= sweep-lo");
    }
    if (mix.sweep_hi_hours > 1e6) mix_fail("sweep-hi", "must be <= 1e6");
    return mix;
  }
  mix_fail("kind", "unknown mix '" + std::string(text) +
                       "' (expected uniform, zipf:<skew> or "
                       "sweep:<lo>-<hi>)");
}

std::string MixSpec::str() const {
  switch (kind) {
    case Kind::kUniform:
      return "uniform";
    case Kind::kZipf:
      return "zipf:" + format_double(zipf_skew);
    case Kind::kSweep:
      return "sweep:" + format_double(sweep_lo_hours) + "-" +
             format_double(sweep_hi_hours);
  }
  return "uniform";  // unreachable
}

LoadSpec LoadSpec::parse(std::string_view text) {
  LoadSpec spec;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeader) {
        line_fail(1, "expected header '" + std::string(kHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      line_fail(line_no, "expected key=value, got '" + std::string(line) +
                             "'");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "machines") {
      spec.machines = parse_uint<std::uint32_t>(line_no, key, value);
    } else if (key == "queries") {
      spec.queries = parse_uint<std::uint64_t>(line_no, key, value);
    } else if (key == "mix") {
      try {
        spec.mix = MixSpec::parse(value);
      } catch (const ConfigError& e) {
        line_fail(line_no, e.what());
      }
    } else if (key == "at_hours") {
      spec.at_hours = parse_double(line_no, key, value);
    } else if (key == "horizon_hours") {
      spec.horizon_hours = parse_double(line_no, key, value);
    } else if (key == "seed") {
      spec.seed = parse_uint<std::uint64_t>(line_no, key, value);
    } else {
      line_fail(line_no, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_header) line_fail(1, "empty input");
  spec.validate();
  return spec;
}

std::string LoadSpec::str() const {
  std::string out(kHeader);
  out += "\nmachines=" + std::to_string(machines);
  out += "\nqueries=" + std::to_string(queries);
  out += "\nmix=" + mix.str();
  out += "\nat_hours=" + format_double(at_hours);
  out += "\nhorizon_hours=" + format_double(horizon_hours);
  out += "\nseed=" + std::to_string(seed);
  out += "\n";
  return out;
}

void LoadSpec::validate() const {
  fgcs::require(machines >= 1 && machines <= 1'000'000,
                "serve load: machines must be in [1, 1000000]");
  fgcs::require(queries >= 1 && queries <= 10'000'000'000ULL,
                "serve load: queries must be in [1, 1e10]");
  fgcs::require(std::isfinite(at_hours) && at_hours >= 0.0 &&
                    at_hours <= 1e7,
                "serve load: at_hours must be in [0, 1e7]");
  fgcs::require(std::isfinite(horizon_hours) && horizon_hours > 0.0 &&
                    horizon_hours <= 1e6,
                "serve load: horizon_hours must be in (0, 1e6]");
  switch (mix.kind) {
    case MixSpec::Kind::kUniform:
      break;
    case MixSpec::Kind::kZipf:
      fgcs::require(std::isfinite(mix.zipf_skew) && mix.zipf_skew > 0.0 &&
                        mix.zipf_skew <= 32.0,
                    "serve load: zipf skew must be in (0, 32]");
      break;
    case MixSpec::Kind::kSweep:
      fgcs::require(std::isfinite(mix.sweep_lo_hours) &&
                        std::isfinite(mix.sweep_hi_hours) &&
                        mix.sweep_lo_hours > 0.0 &&
                        mix.sweep_hi_hours >= mix.sweep_lo_hours &&
                        mix.sweep_hi_hours <= 1e6,
                    "serve load: sweep range must satisfy 0 < lo <= hi <= "
                    "1e6");
      break;
  }
}

LoadGenerator::LoadGenerator(LoadSpec spec) : spec_(spec) {
  spec_.validate();
  if (spec_.mix.kind == MixSpec::Kind::kZipf) {
    zipf_cdf_.reserve(spec_.machines);
    double total = 0.0;
    for (std::uint32_t k = 0; k < spec_.machines; ++k) {
      total += std::pow(static_cast<double>(k + 1), -spec_.mix.zipf_skew);
      zipf_cdf_.push_back(total);
    }
    for (double& v : zipf_cdf_) v /= total;
    zipf_cdf_.back() = 1.0;  // guard against rounding shortfall
  }
}

ServeQuery LoadGenerator::query(std::uint64_t i) const {
  util::RngStream rng(spec_.seed, {kServeTag, i});
  ServeQuery q;
  // Fixed draw order (machine, window, jitter) keeps the sequence stable
  // across mix kinds that skip a draw.
  if (spec_.mix.kind == MixSpec::Kind::kZipf) {
    const double u = rng.uniform();
    const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    q.machine = static_cast<trace::MachineId>(
        std::min<std::size_t>(it - zipf_cdf_.begin(), spec_.machines - 1));
  } else {
    q.machine = static_cast<trace::MachineId>(
        rng.uniform_index(spec_.machines));
  }
  double window_h = spec_.horizon_hours;
  if (spec_.mix.kind == MixSpec::Kind::kSweep) {
    window_h = rng.uniform(spec_.mix.sweep_lo_hours, spec_.mix.sweep_hi_hours);
  }
  q.window = sim::SimDuration::from_seconds(window_h * 3600.0);
  q.at = sim::SimTime::from_seconds(spec_.at_hours * 3600.0 +
                                    rng.uniform(0.0, 3600.0));
  return q;
}

LoadStats run_load(const QueryEngine& engine, const LoadGenerator& gen,
                   std::uint64_t begin, std::uint64_t end) {
  fgcs::require(begin <= end && end <= gen.spec().queries,
                "serve load: query range out of bounds");
  const auto snap = engine.pin();
  LoadStats stats;
  for (std::uint64_t i = begin; i < end; ++i) {
    const ServeQuery q = gen.query(i);
    const QueryAnswer a = engine.query(*snap, q);
    ++stats.queries;
    stats.prob_sum += a.p_available;
    stats.occ_sum += a.expected_occurrences;
  }
  // One batched serve.queries bump for the whole range, stamped at the
  // load's nominal arrival time — per-call bumps would dominate the very
  // loop this function exists to measure.
  obs::emit({.at = sim::SimTime::from_seconds(gen.spec().at_hours * 3600.0),
             .kind = obs::FlightEventKind::kServeQueries,
             .count = stats.queries});
  return stats;
}

}  // namespace fgcs::serve
