#include "common.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t g_tick0 = 0;
std::chrono::steady_clock::time_point g_steady0;

/// A "Key:   123 kB" line of /proc/self/status, in kB (-1 when absent).
long status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, n) == 0) {
      kb = std::strtol(line + n, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

void start_clock() {
  g_steady0 = std::chrono::steady_clock::now();
  g_tick0 = ticks();
}

double ns_per_tick() {
  // At least 20 ms of baseline, so even an early call is accurate to a
  // fraction of a percent.
  std::chrono::steady_clock::time_point now;
  std::uint64_t t = 0;
  do {
    now = std::chrono::steady_clock::now();
    t = ticks();
  } while (now - g_steady0 < std::chrono::milliseconds(20));
  const double ns =
      std::chrono::duration<double, std::nano>(now - g_steady0).count();
  return ns / static_cast<double>(t - g_tick0);
}

double tick_read_ns() {
  constexpr int kReads = 1 << 20;
  std::uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReads; ++i) acc += ticks();
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kReads;
}

double steady_read_ns() {
  constexpr int kReads = 1 << 20;
  std::uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReads; ++i) {
    acc += static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kReads;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<double> to_seconds(const std::vector<std::uint64_t>& t,
                               double ns_per_tick) {
  std::vector<double> out;
  out.reserve(t.size());
  for (const std::uint64_t v : t) {
    out.push_back(static_cast<double>(v) * ns_per_tick / 1e9);
  }
  return out;
}

// --- spans -------------------------------------------------------------------

Totals summarize(const std::vector<const Tracer*>& tracers,
                 double ns_per_tick) {
  Totals out;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<std::uint64_t> child_busy(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_busy[static_cast<std::size_t>(s.parent)] += s.busy;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = out[spans[i].name];
      const double busy = static_cast<double>(spans[i].busy) * ns_per_tick;
      t.calls += spans[i].calls;
      t.busy_ns += busy;
      t.self_ns += std::max(
          0.0, busy - static_cast<double>(child_busy[i]) * ns_per_tick);
    }
  }
  return out;
}

double busy_ns(const Totals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.busy_ns;
}

std::uint64_t calls_of(const Totals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.calls;
}

double unaccounted_frac(const Totals& totals) {
  double self = 0.0;
  double busy = 0.0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("bench.", 0) != 0) continue;
    self += t.self_ns;
    busy += t.busy_ns;
  }
  return busy > 0.0 ? self / busy : 0.0;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers,
                 double ns_per_tick) {
  std::uint64_t origin = UINT64_MAX;
  for (const Tracer* tracer : tracers) {
    for (const Span& s : tracer->spans()) origin = std::min(origin, s.start);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"ns_per_tick\": %.17g, \"threads\": [", ns_per_tick);
  for (std::size_t k = 0; k < tracers.size(); ++k) {
    std::fprintf(f, "%s\n [", k == 0 ? "" : ",");
    const auto& spans = tracers[k]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"start_ns\": %.1f, "
                   "\"end_ns\": %.1f, \"busy_ns\": %.1f, \"parent\": %d, "
                   "\"calls\": %" PRIu64 "}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start - origin) * ns_per_tick,
                   static_cast<double>(s.end - origin) * ns_per_tick,
                   static_cast<double>(s.busy) * ns_per_tick, s.parent,
                   s.calls);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::string Context::spans_path() const {
  return out_dir + "/spans-" + workload + "-" + std::to_string(seed) +
         ".json";
}

// --- measurement helpers -----------------------------------------------------

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const double a = *nth;
  const double b = lo + 1 < v.size() ? *std::min_element(nth + 1, v.end()) : a;
  return a + (b - a) * (pos - static_cast<double>(lo));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void RecordDigest::add(const fgcs::trace::UnavailabilityRecord& r) {
  std::uint64_t h = mix64(r.machine);
  h = mix64(h ^ static_cast<std::uint64_t>(r.start.as_micros()));
  h = mix64(h ^ static_cast<std::uint64_t>(r.end.as_micros()));
  h = mix64(h ^ static_cast<std::uint64_t>(r.cause));
  h = mix64(h ^ bits_of(r.host_cpu));
  h = mix64(h ^ bits_of(r.free_mem_mb));
  ++count;
  sum += h;
  xr ^= mix64(h);
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

PeakRss::PeakRss() {
  if (!reset_peak_rss()) {
    throw std::runtime_error("cannot restart VmHWM via /proc/self/clear_refs");
  }
}

double PeakRss::peak_mb() const {
  const long kb = status_kb("VmHWM:");
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kb) * 1024.0 / 1e6;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::string fs_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  const auto magic = static_cast<std::uint32_t>(info.f_type);
  switch (magic) {
    case 0xEF53u: return "ext4";
    case 0x01021994u: return "tmpfs";
    case 0x858458F6u: return "ramfs";
    case 0x794C7630u: return "overlayfs";
    case 0x58465342u: return "xfs";
    case 0x9123683Eu: return "btrfs";
    case 0x6969u: return "nfs";
    case 0x65735546u: return "fuse";
    case 0x2FC12FC1u: return "zfs";
    default: break;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%08" PRIx32, magic);
  return buf;
}

bool is_tmpfs(const std::string& path) {
  const std::string type = fs_type(path);
  return type == "tmpfs" || type == "ramfs";
}

}  // namespace perfbench
