// One benchmark process: starts one workload's stack pinned to one CPU,
// runs a fixed number of operations with a single closed-loop client thread,
// checks the outputs, and prints one JSON line of results.
//
//   lidi_perfbench --workload serving|activity|capture --seed N
//                  [--ops N] [--mode plain|traced|obs_off] [--cpu N]
//                  [--spans FILE]
//
// plain: the measured run. traced: spans through the transport and fs
// decorators, per-layer table in "layers", spans written to FILE.
// obs_off: as plain with the transport's MetricsRegistry disabled.

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

using lidi::perfbench::Percentile;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(const rusage& r) {
  return r.ru_utime.tv_sec + r.ru_stime.tv_sec +
         (r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: lidi_perfbench --workload serving|activity|capture "
               "--seed N [--ops N] [--mode plain|traced|obs_off] [--cpu N] "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = NowSeconds();
  std::map<std::string, std::string> args{{"mode", "plain"}, {"ops", "0"},
                                          {"cpu", "-1"}};
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || args.count("workload") == 0 || args.count("seed") == 0) {
    return Usage();
  }
  const std::string mode = args["mode"];
  if (mode != "plain" && mode != "traced" && mode != "obs_off") return Usage();

  // Pin before any thread exists: the transport's reactor and workers
  // inherit the mask, so the whole stack shares the one CPU.
  const int cpu = std::atoi(args["cpu"].c_str());
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      std::perror("sched_setaffinity");
      return 2;
    }
  }

  lidi::perfbench::SpanRecorder recorder;
  lidi::perfbench::RunConfig config;
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.ops = std::atoll(args["ops"].c_str());
  config.recorder = mode == "traced" ? &recorder : nullptr;
  config.obs_enabled = mode != "obs_off";
  auto workload = lidi::perfbench::MakeWorkload(args["workload"], config);
  if (workload == nullptr) return Usage();

  workload->Setup();
  const double setup_s = NowSeconds() - process_start;

  lidi::perfbench::RunResult result;
  if (config.recorder != nullptr) recorder.Clear();
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const double start = NowSeconds();
  workload->Run(&result);
  const double elapsed = NowSeconds() - start;
  rusage after{};
  getrusage(RUSAGE_SELF, &after);

  const double ops = static_cast<double>(result.completed);
  std::map<std::string, double> metrics{
      {"setup_s", setup_s},
      {"ops_s", elapsed > 0 ? ops / elapsed : 0},
      {"read_p50_us", Percentile(result.read_us, 0.50)},
      {"read_p99_us", Percentile(result.read_us, 0.99)},
      {"write_p50_us", Percentile(result.write_us, 0.50)},
      {"write_p99_us", Percentile(result.write_us, 0.99)},
      {"peak_rss_mb", after.ru_maxrss / 1024.0},
  };
  std::map<std::string, double> layers{
      {"proc.cpu_us_per_op",
       ops > 0 ? (CpuSeconds(after) - CpuSeconds(before)) * 1e6 / ops : 0},
      {"proc.ctx_switches_per_op",
       ops > 0 ? (after.ru_nvcsw + after.ru_nivcsw - before.ru_nvcsw -
                  before.ru_nivcsw) / ops
               : 0},
  };
  // The per-layer table and the span file cover the timed phase only, so
  // they are taken before the checks below place calls of their own.
  if (config.recorder != nullptr) {
    const lidi::perfbench::TraceView trace(recorder.spans(), recorder.names());
    for (const auto& [name, value] :
         lidi::perfbench::LayerMetrics(trace, result)) {
      layers[name] = value;
    }
    if (args.count("spans") != 0 && !recorder.WriteTsv(args["spans"])) {
      std::fprintf(stderr, "cannot write %s\n", args["spans"].c_str());
      return 2;
    }
  }
  workload->Check(&result);

  std::string line = "{\"workload\": " + JsonString(args["workload"]) +
                     ", \"mode\": " + JsonString(mode) +
                     ", \"transport\": " + JsonString(workload->transport()) +
                     ", \"data_dir\": " + JsonString(workload->data_dir()) +
                     ", \"cpu\": " + std::to_string(cpu) +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"completed\": " + std::to_string(result.completed) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    line += (i > 0 ? ", " : "") + JsonString(result.failures[i]);
  }
  line += "]";
  for (const auto* group : {&metrics, &layers}) {
    line += group == &metrics ? ", \"metrics\": {" : ", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : *group) {
      char number[64];
      std::snprintf(number, sizeof(number), "%.9g", value);
      line += (first ? "" : ", ") + JsonString(name) + ": " + number;
      first = false;
    }
    line += "}";
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
