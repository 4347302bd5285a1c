#ifndef LIDI_BENCH_BENCH_UTIL_H_
#define LIDI_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace lidi::bench {

/// Wall-clock stopwatch for throughput/latency measurements.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
               .count() /
           1000.0;
  }
  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Exact-percentile recorder: keeps every raw sample (bench scales are small
/// enough) and interpolates linearly between the two closest ranks.
/// Production paths use the bounded obs::LatencyHistogram instead.
///
/// Contract: on an empty recorder, Average/Percentile/Max all return 0
/// rather than reading past the sample vector.
class Samples {
 public:
  void Record(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }

  double Average() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (double v : samples_) sum += v;
    return sum / static_cast<double>(samples_.size());
  }

  /// p in [0, 100]; sorts lazily.
  double Percentile(double p) {
    if (samples_.empty()) return 0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1 - frac) + samples_[hi] * frac;
  }

  double Max() { return Percentile(100); }

  /// One-line summary, e.g. "n=1000 avg=2.130 p50=1.900 ... max=9.100".
  std::string Summary() {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%zu avg=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
                  count(), Average(), Percentile(50), Percentile(95),
                  Percentile(99), Max());
    return buf;
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Section header for a bench report.
inline void Header(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("%s\n", std::string(72, '-').c_str());
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

/// Machine-readable result capture: when the LIDI_BENCH_JSON environment
/// variable is set, appends one JSON object per call — `{"experiment": ...,
/// <labels>, <metrics>}` — to `default_path` in the current directory (or to
/// the path LIDI_BENCH_JSON names, when it is not "1"). Unset = no-op, so
/// the human-readable report stays the default. JsonRow writes to the
/// historical default, BENCH_kafka.json; transport-comparison benches pass
/// BENCH_net.json explicitly.
inline void JsonRowAt(
    const char* default_path, const char* experiment,
    std::initializer_list<std::pair<const char*, std::string>> labels,
    std::initializer_list<std::pair<const char*, double>> metrics) {
  const char* env = std::getenv("LIDI_BENCH_JSON");
  if (env == nullptr || env[0] == '\0') return;
  const char* path = std::strcmp(env, "1") == 0 ? default_path : env;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"experiment\": \"%s\"", experiment);
  for (const auto& [key, value] : labels) {
    std::fprintf(f, ", \"%s\": \"%s\"", key, value.c_str());
  }
  for (const auto& [key, value] : metrics) {
    std::fprintf(f, ", \"%s\": %.6g", key, value);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

inline void JsonRow(
    const char* experiment,
    std::initializer_list<std::pair<const char*, std::string>> labels,
    std::initializer_list<std::pair<const char*, double>> metrics) {
  JsonRowAt("BENCH_kafka.json", experiment, labels, metrics);
}

/// Dumps a registry snapshot into the same LIDI_BENCH_JSON file JsonRow
/// writes to — one object per instrument, tagged with `experiment` — so a
/// bench's registry state lands next to its summary rows. Same gate: unset
/// env var = no-op.
inline void JsonSnapshot(const char* experiment,
                         const obs::RegistrySnapshot& snapshot) {
  const char* env = std::getenv("LIDI_BENCH_JSON");
  if (env == nullptr || env[0] == '\0') return;
  const char* path =
      std::strcmp(env, "1") == 0 ? "BENCH_kafka.json" : env;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  const std::string json = snapshot.ToJson(experiment);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace lidi::bench

#endif  // LIDI_BENCH_BENCH_UTIL_H_
