// EXT-4 — transport backend comparison: the same RPC workload on the
// deterministic sim transport and on real localhost TCP sockets.
//
// The pluggable transport runtime (DESIGN.md §10) claims tier code runs
// unmodified on both backends. This bench quantifies what that costs: sim
// dispatch is a synchronous function call (nanoseconds), TCP pays a real
// kernel round trip (microseconds) plus one deserialize copy on the
// receiving side of the pinned-payload path. Each configuration runs 1, 4
// and 16 concurrent callers, so calls/s is throughput, not only 1/RTT.
//
// Rows land in BENCH_net.json (LIDI_BENCH_JSON=1).

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "net/network.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

using namespace lidi;

namespace {

std::unique_ptr<net::Transport> MakeTransport(const std::string& mode) {
  if (mode == "tcp") return std::make_unique<net::TcpTransport>();
  return std::make_unique<net::Network>();
}

}  // namespace

int main() {
  bench::Header("EXT-4: sim vs TCP transport backends",
                "one Transport interface, two runtimes: deterministic "
                "in-process dispatch vs blocking localhost sockets");
  bench::Row("%5s | %10s | %7s | %12s | %12s | %10s", "mode", "payload B",
             "callers", "calls/s", "fetch MB/s", "p99 us");

  for (const std::string mode : {"sim", "tcp"}) {
    for (int payload_bytes : {64, 64 << 10}) {
      for (int callers : {1, 4, 16}) {
        auto transport = MakeTransport(mode);
        Random rng(11);
        const std::string blob = rng.Bytes(payload_bytes);
        // The serving shape: a pinned response straight out of "storage",
        // zero-copy in-sim, one deserialize copy over TCP.
        transport->RegisterPayload(
            "server", "fetch", [&blob](Slice) -> Result<PinnedSlice> {
              return PinnedSlice::Own(std::string(blob));
            });

        // The call budget is split across the callers, so every row moves
        // the same bytes.
        const int kWarmupPerCaller = 200 / callers;
        const int kCallsPerCaller =
            (payload_bytes > 1024 ? 4'000 : 20'000) / callers;
        std::atomic<bool> failed{false};
        std::vector<std::vector<double>> micros(callers);
        std::latch warm(callers);
        std::latch go(1);
        std::vector<std::thread> threads;
        threads.reserve(callers);
        for (int c = 0; c < callers; ++c) {
          threads.emplace_back([&, c] {
            const std::string client = "client-" + std::to_string(c);
            auto fetch = [&] {
              auto r = transport->CallPayload(client, "server", "fetch", "");
              if (!r.ok() || r.value().size() != blob.size()) {
                failed.store(true);
              }
            };
            for (int i = 0; i < kWarmupPerCaller; ++i) fetch();
            micros[c].reserve(kCallsPerCaller);
            warm.count_down();
            go.wait();
            for (int i = 0; i < kCallsPerCaller; ++i) {
              bench::Stopwatch call;
              fetch();
              micros[c].push_back(call.ElapsedMicros());
            }
          });
        }
        warm.wait();
        bench::Stopwatch total;
        go.count_down();
        for (auto& thread : threads) thread.join();
        const double seconds = total.ElapsedSeconds();
        if (failed.load()) return 1;

        bench::Samples samples;
        for (const auto& per_caller : micros) {
          for (double v : per_caller) samples.Record(v);
        }
        const double calls = static_cast<double>(samples.count());
        const double rate = calls / seconds;
        const double mbps = calls * payload_bytes / seconds / (1 << 20);
        const double p99 = samples.Percentile(99);

        bench::Row("%5s | %10d | %7d | %12.0f | %12.1f | %10.1f",
                   mode.c_str(), payload_bytes, callers, rate, mbps, p99);
        bench::JsonRowAt("BENCH_net.json", "EXT-4", {{"transport", mode}},
                         {{"payload_bytes", payload_bytes},
                          {"callers", callers},
                          {"calls_per_s", rate},
                          {"fetch_mbps", mbps},
                          {"p99_micros", p99}});
      }
    }
  }
  bench::Row("\nshape check: sim RTT is a function call; TCP pays the kernel\n"
             "round trip but keeps the identical Transport error/trace\n"
             "contract — the price of running tiers over real sockets. More\n"
             "callers raise TCP calls/s while CPUs are idle, then p99 grows.");
  return 0;
}
