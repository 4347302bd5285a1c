#ifndef LIDI_NET_NETWORK_H_
#define LIDI_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/sync.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace lidi::net {

/// In-process simulated cluster transport: the deterministic backend of the
/// net::Transport interface (see transport.h for the API contract).
///
/// Substitution note (see DESIGN.md §10): stands in for the production RPC
/// stack. Handlers run synchronously in the caller's thread; failure modes
/// (drops, latency, partitions, crashed nodes) are injected deterministically
/// from a seeded RNG, so the sim harness (src/sim) replays byte-identical
/// traces from a seed. Thread-safe.
///
/// Observability: the Network owns (or is handed) the obs::MetricsRegistry
/// that every component talking through it uses by default — pass one
/// registry to the Network and the whole deployment exports through a single
/// Snapshot(). Each call records a span; handlers that place nested calls
/// get those recorded under the caller's span automatically (an ambient
/// per-thread trace context, since handlers run in the caller's thread).
class Network final : public Transport {
 public:
  /// `max_dispatch_inflight` bounds concurrent admitted dispatches — the
  /// sim analogue of the TCP backend's bounded request queue (nested calls
  /// placed by handlers hold slots too, so the bound must exceed the
  /// deepest call chain times expected concurrency). 0 = unbounded. A call
  /// refused admission fails Overloaded("dispatch queue full at <to>") and
  /// increments "net.dispatch.shed{endpoint=<to>}", through the same
  /// internal::EndpointTable the TCP backend admits with.
  explicit Network(uint64_t fault_seed = 42,
                   obs::MetricsRegistry* metrics = nullptr,
                   const Clock* clock = nullptr,
                   int64_t max_dispatch_inflight = 0);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  obs::MetricsRegistry* metrics() const override { return table_.metrics(); }

  void RegisterPayload(const Address& addr, const std::string& method,
                       PayloadHandler handler) override {
    table_.Register(addr, method, std::move(handler));
  }

  void Unregister(const Address& addr) override { table_.Unregister(addr); }

  using Transport::Call;
  using Transport::CallPayload;

  /// Zero-copy call: the response payload is pinned, not copied. A string
  /// handler's response was wrapped (moved) into a pinned buffer at
  /// registration time, so this path never copies payload bytes regardless
  /// of handler kind.
  Result<PinnedSlice> CallPayload(const Address& from, const Address& to,
                                  const std::string& method, Slice request,
                                  const CallOptions& options) override;

  void Shutdown() override { table_.Shutdown(); }

  // --- fault injection ---

  /// Marks a node down (crash). Calls to it fail Unavailable; its handlers
  /// stay registered so SetNodeUp models a restart.
  void SetNodeDown(const Address& addr);
  void SetNodeUp(const Address& addr);
  bool IsNodeUp(const Address& addr) const;

  /// Probability in [0,1] that any given call is dropped.
  void SetDropProbability(double p);

  /// Splits the cluster: traffic between `side_a` members and everyone else
  /// is blocked. Heal() removes the partition and then runs every heal
  /// listener (outside the lock).
  void PartitionOff(const std::set<Address>& side_a);
  void Heal();
  bool IsPartitioned() const;

  /// Registers a callback invoked after every Heal() — the hook failure
  /// detectors use to probe banned nodes immediately instead of sitting out
  /// the rest of their ban interval (see voldemort::FailureDetector::
  /// ProbeBannedNow). Listeners must outlive the network or be removed by
  /// re-registering via ClearHealListeners.
  void AddHealListener(std::function<void()> listener);
  void ClearHealListeners();

  // --- deterministic simulation hooks (src/sim) ---

  /// Virtual-time stepping: every dispatched call advances `clock` by
  /// `base_step_micros` (plus the current delay burst, seeded per call).
  /// This is how the simulation harness makes time a pure function of the
  /// message sequence — retention windows, failure-detector bans and
  /// deadlines all move deterministically with traffic, never with the wall
  /// clock. Pass nullptr to disable.
  void EnableVirtualTimeStepping(ManualClock* clock, int64_t base_step_micros);

  /// Extra per-call delay in [0, extra_micros], drawn from the seeded RNG,
  /// while a burst is active. 0 = calm. Only meaningful with virtual-time
  /// stepping enabled.
  void SetDelayBurst(int64_t extra_micros);

  EndpointStats GetStats(const Address& addr) const override {
    return table_.GetStats(addr);
  }
  void ResetStats() override { table_.ResetStats(); }

  int64_t total_calls() const override { return table_.total_calls(); }

 private:
  /// Fault injection (under mu_), after the table has counted the sender:
  /// steps virtual time, then fails the call if its deadline has passed or
  /// `to` is down, partitioned off from `from`, or drawn for a drop.
  Status Route(const Address& from, const Address& to,
               int64_t deadline_micros);

  const Clock* const clock_;
  // tsa-ok: internally synchronized; its net.table lock is never taken
  // under mu_.
  internal::EndpointTable table_;

  /// Sim fault and virtual-time state (rank kNetEndpoints): a leaf, never
  /// held across a handler call.
  mutable Mutex mu_{"net.endpoints", lockrank::kNetEndpoints};
  std::set<Address> down_ LIDI_GUARDED_BY(mu_);
  std::set<Address> partition_a_ LIDI_GUARDED_BY(mu_);
  bool partitioned_ LIDI_GUARDED_BY(mu_) = false;
  double drop_probability_ LIDI_GUARDED_BY(mu_) = 0;
  ManualClock* step_clock_ LIDI_GUARDED_BY(mu_) = nullptr;
  int64_t step_micros_ LIDI_GUARDED_BY(mu_) = 0;
  int64_t delay_burst_micros_ LIDI_GUARDED_BY(mu_) = 0;
  std::vector<std::function<void()>> heal_listeners_ LIDI_GUARDED_BY(mu_);
  Random rng_ LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::net

#endif  // LIDI_NET_NETWORK_H_
