// fgcs benchmark driver: runs one workload through the library's public
// entry points -- the calls under `fgcs fleet`, `fgcs query` and
// `fgcs serve` -- and prints each metric it measured by name with its
// unit, the run environment, and one `result {...}` line that
// perfbench/run.py turns into the benchmark's result object.
//
//   fgcs_perfbench --workload sweep|sweep-faults|query|serve --seed N
//                  --seconds S --trace 0|1 --root DIR [--commit REV]
//                  [--source-digest HEX] [--held-out-seed N]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is a
// separate run that records spans around each call into a layer and
// reports the per-layer metrics, writing the spans under DIR/.bench_run/.
// Spills go to DIR/.bench_run/work, on the checkout's own filesystem.
//
// Exit status: 0 after a completed run (failed checks are counted in the
// result), 1 on an error, 2 on bad arguments, 3 when the run environment
// would not give comparable numbers.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fgcs/util/io.hpp"

namespace {

using perfbench::Context;
using perfbench::Metric;
using perfbench::Result;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string root;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::optional<std::uint64_t> held_out_seed;
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t to_u64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size() || value[0] == '-') {
    throw UsageError("bad value for " + key + ": " + value);
  }
  return v;
}

double to_double(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size() || !std::isfinite(v)) {
    throw UsageError("bad value for " + key + ": " + value);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = to_u64(key, value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = to_double(key, value);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(to_u64(key, value));
    } else if (key == "--root") {
      a.root = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else if (key == "--held-out-seed") {
      a.held_out_seed = to_u64(key, value);
    } else {
      throw UsageError("unknown option " + key);
    }
  }
  if (a.workload != "sweep" && a.workload != "sweep-faults" &&
      a.workload != "query" && a.workload != "serve") {
    throw UsageError("--workload must be sweep, sweep-faults, query or serve");
  }
  if (!have_seed) throw UsageError("--seed is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw UsageError("--seconds must be in (0, 600]");
  }
  if (a.trace != 0 && a.trace != 1) throw UsageError("--trace must be 0 or 1");
  if (a.root.empty()) throw UsageError("--root is required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string json_object(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  Fields fields;
  for (const Metric& m : metrics) {
    fields.emplace_back(m.name, "{\"value\": " + json_number(m.value) +
                                    ", \"unit\": " + json_string(m.unit) +
                                    "}");
  }
  return json_object(fields);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key : {"model name", "Hardware", "CPU part"}) {
      if (line.rfind(key, 0) != 0) continue;
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const auto begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "unknown" : line.substr(begin);
    }
  }
  return "unknown";
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

const char* clock_source() {
#if defined(__x86_64__) || defined(__i386__)
  return "rdtsc";
#elif defined(__aarch64__)
  return "cntvct_el0";
#else
  return "steady_clock";
#endif
}

Result dispatch(const Context& ctx) {
  if (ctx.workload == "sweep") return perfbench::run_sweep(ctx, false);
  if (ctx.workload == "sweep-faults") return perfbench::run_sweep(ctx, true);
  if (ctx.workload == "query") return perfbench::run_query(ctx);
  return perfbench::run_serve(ctx);
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("  %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("    %-36s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::start_clock();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Context ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.traced = args.trace == 1;
  ctx.out_dir = args.root + "/.bench_run";
  ctx.work_dir = ctx.out_dir + "/work";
  ctx.threads = std::min(4u, usable_cpus());
  try {
    std::filesystem::remove_all(ctx.work_dir);
    std::filesystem::create_directories(ctx.work_dir);
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    const std::string spill_fs = perfbench::fs_type(ctx.work_dir);
    const auto durability = fgcs::util::durability_level();
    const std::string durability_name =
        fgcs::util::durability_name(durability);
    Fields env = {
        {"workload", json_string(ctx.workload)},
        {"seed", std::to_string(ctx.seed)},
        {"held_out_seed", args.held_out_seed
                              ? std::to_string(*args.held_out_seed)
                              : "null"},
        {"seed_is_held_out", ctx.seed == args.held_out_seed ? "true" : "false"},
        {"seconds", json_number(ctx.seconds)},
        {"trace", std::to_string(args.trace)},
        {"nproc", std::to_string(usable_cpus())},
        {"threads_max", std::to_string(ctx.threads)},
        {"cpu_model", json_string(cpu_model())},
        {"build_type", json_string(build_type)},
        {"ndebug", ndebug ? "true" : "false"},
        {"compiler", json_string(PERFBENCH_COMPILER)},
        {"commit", json_string(args.commit)},
        {"source_digest", json_string(args.source_digest)},
        {"fgcs_durability", json_string(durability_name)},
        {"spill_fs", json_string(spill_fs)},
        {"clock", json_string(clock_source())},
        {"clock_read_ns", json_number(perfbench::tick_read_ns())},
        {"steady_clock_read_ns", json_number(perfbench::steady_read_ns())},
    };

    // Numbers from these runs would not compare with anyone else's.
    std::string refusal;
    if (build_type != "Release" || !ndebug) {
      refusal = "build type '" + build_type + "'" +
                (ndebug ? "" : " with assertions on") +
                "; only Release numbers compare";
    } else if (!perfbench::reset_peak_rss()) {
      refusal =
          "/proc/self/clear_refs cannot restart the peak-RSS mark, so "
          "peak_rss_mb would include set-up";
    } else if (ctx.workload == "sweep" && perfbench::is_tmpfs(ctx.work_dir)) {
      refusal = "the sweep would spill to " + spill_fs +
                "; it must pay a real disk's rename and fsync costs";
    } else if (ctx.workload == "sweep" &&
               durability != fgcs::util::Durability::kCommit) {
      refusal = "FGCS_DURABILITY=" + durability_name +
                "; the sweep runs at the default, commit";
    }
    if (!refusal.empty()) {
      std::printf("env %s\n", json_object(env).c_str());
      std::fprintf(stderr, "perfbench: refusing the run: %s\n",
                   refusal.c_str());
      std::filesystem::remove_all(ctx.work_dir);
      return 3;
    }

    const Result result = dispatch(ctx);
    std::filesystem::remove_all(ctx.work_dir);
    env.emplace_back("ns_per_tick", json_number(perfbench::ns_per_tick()));

    std::printf("perfbench %s: seed %llu, %g s, %s run\n",
                ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.traced ? "traced" : "untraced");
    print_metrics("workload figures", result.details);
    print_metrics(ctx.traced ? "per-layer metrics" : "end-to-end metrics",
                  result.metrics);
    for (const std::string& note : result.notes) {
      std::printf("  note: %s\n", note.c_str());
    }
    for (const std::string& error : result.errors) {
      std::printf("  FAILED: %s\n", error.c_str());
    }
    std::printf("  operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));

    const bool correct = result.errors.empty() && result.failed == 0;
    const std::string line =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(result.attempted) +
        ", \"failed\": " + std::to_string(result.failed) +
        ", \"metrics\": " + metrics_object(result.metrics) + "}";
    const std::string env_json = json_object(env);
    const std::string record = ctx.out_dir + "/result-" + ctx.workload + "-" +
                               std::to_string(ctx.seed) + "-trace" +
                               std::to_string(args.trace) + ".json";
    if (std::FILE* f = std::fopen(record.c_str(), "w")) {
      std::fprintf(f, "{\"env\": %s, \"details\": %s, \"result\": %s}\n",
                   env_json.c_str(), metrics_object(result.details).c_str(),
                   line.c_str());
      std::fclose(f);
    }
    std::printf("env %s\n", env_json.c_str());
    std::printf("result %s\n", line.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", ctx.workload.c_str(),
                 e.what());
    std::error_code ec;
    std::filesystem::remove_all(ctx.work_dir, ec);
    return 1;
  }
}
