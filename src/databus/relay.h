#ifndef LIDI_DATABUS_RELAY_H_
#define LIDI_DATABUS_RELAY_H_

#include <deque>
#include <memory>
#include <string>

#include "common/sync.h"
#include "databus/event.h"
#include "net/transport.h"
#include "sqlstore/database.h"

namespace lidi::databus {

struct RelayOptions {
  /// Circular-buffer capacity in events (production relays hold hundreds of
  /// millions in tens of GB; tests use small values to exercise eviction).
  int64_t buffer_capacity_events = 1 << 20;
  /// Max transactions ingested per poll.
  int64_t poll_batch_transactions = 1024;
};

/// The Databus relay (paper Section III.C): captures changes from the source
/// database (by consuming its replication log), serializes them to the
/// source-independent event format, and buffers them in an in-memory
/// circular buffer indexed by SCN.
///
/// The relay is stateless across restarts — it re-pulls from the source, the
/// source of truth, which is what keeps the relay tier simple (III.D).
/// Relays serve clients and bootstrap servers over the network, and can
/// chain off another relay instead of a database for replicated availability.
///
/// RPC: "databus.read" with request = {since_scn varint, max_events varint,
/// filter}; response = encoded event list. A read from an SCN older than the
/// buffer's tail fails NotFound — the client must bootstrap.
///
/// Observability: each pull runs under a "databus.relay.poll" span in the
/// network's registry (chained pulls carry the span across the upstream
/// hop); ingest/serve volume lands in "databus.relay.events_ingested" and
/// "databus.relay.events_served", labeled by relay name.
class Relay {
 public:
  /// A relay capturing directly from a source database.
  Relay(std::string relay_name, const sqlstore::Database* source,
        net::Transport* network, RelayOptions options = {});

  /// A chained relay pulling from an upstream relay's serve path.
  Relay(std::string relay_name, net::Address upstream_relay,
        net::Transport* network, RelayOptions options = {});

  ~Relay();

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  const net::Address& address() const { return name_; }

  /// Ingests newly committed transactions from the source (or upstream
  /// relay). Returns the number of events ingested. Call from a poller
  /// thread in production; tests call it synchronously.
  Result<int64_t> PollOnce();

  /// Direct (in-process) read path; the RPC handler forwards here. Returns
  /// events with scn > since_scn matching the filter.
  Result<std::vector<Event>> ReadEvents(int64_t since_scn, int64_t max_events,
                                        const Filter& filter) const;

  /// Adjusts the circular-buffer capacity at runtime (trimming the oldest
  /// events if shrinking). Used by the multi-tenant host to rebalance the
  /// shared budget when tenants come and go.
  void SetBufferCapacity(int64_t capacity_events);

  int64_t min_buffered_scn() const;
  int64_t max_buffered_scn() const;
  int64_t buffered_events() const;

 private:
  Relay(std::string relay_name, const sqlstore::Database* source,
        net::Address upstream, net::Transport* network, RelayOptions options);

  void AppendEventsLocked(std::vector<Event> events) LIDI_REQUIRES(mu_);

  const std::string name_;
  const sqlstore::Database* const source_;  // null for chained relays
  const net::Address upstream_;             // empty for direct relays
  net::Transport* const network_;
  RelayOptions options_ LIDI_GUARDED_BY(mu_);  // capacity adjustable at runtime
  obs::MetricsRegistry* const metrics_;
  obs::Counter* const events_ingested_;
  obs::Counter* const events_served_;

  /// Never held across the upstream pull (PollOnce snapshots the cursor,
  /// fetches unlocked, then merges) so serving consumers is never blocked
  /// behind a slow source.
  mutable Mutex mu_{"databus.relay"};
  std::deque<Event> buffer_ LIDI_GUARDED_BY(mu_);
  int64_t last_pulled_scn_ LIDI_GUARDED_BY(mu_) = 0;
};

/// Encodes/decodes the "databus.read" request.
void EncodeReadRequest(int64_t since_scn, int64_t max_events,
                       const Filter& filter, std::string* out);
Status DecodeReadRequest(Slice input, int64_t* since_scn, int64_t* max_events,
                         Filter* filter);

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_RELAY_H_
