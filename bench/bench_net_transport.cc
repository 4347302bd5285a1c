// EXT-4 — transport backend comparison: the same RPC workload on the
// deterministic sim transport and on real epoll/TCP localhost sockets.
//
// The pluggable transport runtime (DESIGN.md §10) claims tier code runs
// unmodified on both backends. This bench quantifies what that costs: sim
// dispatch is a synchronous function call (nanoseconds), TCP pays a real
// kernel round trip (microseconds) plus exactly one serialize copy per
// side on the pinned-payload path.
//
// Rows land in BENCH_net.json (LIDI_BENCH_JSON=1).

#include <memory>
#include <string>
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
                "in-process dispatch vs epoll over localhost sockets");
  bench::Row("%5s | %10s | %12s | %12s | %10s", "mode", "payload B",
             "calls/s", "fetch MB/s", "p99 us");

  for (const std::string mode : {"sim", "tcp"}) {
    for (int payload_bytes : {64, 64 << 10}) {
      auto transport = MakeTransport(mode);
      Random rng(11);
      const std::string blob = rng.Bytes(payload_bytes);
      // The serving shape: a pinned response straight out of "storage",
      // zero-copy in-sim, one copy per side over TCP.
      transport->RegisterPayload(
          "server", "fetch", [&blob](Slice) -> Result<PinnedSlice> {
            return PinnedSlice::Own(std::string(blob));
          });

      const int kWarmup = 200;
      const int kCalls = payload_bytes > 1024 ? 4'000 : 20'000;
      for (int i = 0; i < kWarmup; ++i) {
        if (!transport->CallPayload("client", "server", "fetch", "").ok()) {
          return 1;
        }
      }

      std::vector<double> micros;
      micros.reserve(kCalls);
      bench::Stopwatch total;
      for (int i = 0; i < kCalls; ++i) {
        bench::Stopwatch call;
        auto r = transport->CallPayload("client", "server", "fetch", "");
        if (!r.ok() || r.value().size() != blob.size()) return 1;
        micros.push_back(call.ElapsedMicros());
      }
      const double seconds = total.ElapsedSeconds();
      const double rate = kCalls / seconds;
      const double mbps =
          static_cast<double>(kCalls) * payload_bytes / seconds / (1 << 20);
      std::sort(micros.begin(), micros.end());
      const double p99 = micros[static_cast<size_t>(0.99 * (kCalls - 1))];

      bench::Row("%5s | %10d | %12.0f | %12.1f | %10.1f", mode.c_str(),
                 payload_bytes, rate, mbps, p99);
      bench::JsonRowAt("BENCH_net.json", "EXT-4", {{"transport", mode}},
                       {{"payload_bytes", payload_bytes},
                        {"calls_per_s", rate},
                        {"fetch_mbps", mbps},
                        {"p99_micros", p99}});
    }
  }
  bench::Row("\nshape check: sim RTT is a function call; TCP pays the kernel\n"
             "round trip but keeps the identical Transport error/trace\n"
             "contract — the price of running tiers over real sockets.");
  return 0;
}
