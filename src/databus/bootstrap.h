#ifndef LIDI_DATABUS_BOOTSTRAP_H_
#define LIDI_DATABUS_BOOTSTRAP_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "databus/event.h"
#include "databus/relay.h"
#include "net/transport.h"

namespace lidi::databus {

/// Result of a consistent-snapshot query: the live rows plus the sequence
/// number U of the last transaction applied — the client continues relay
/// consumption from U (paper Section III.C, Figure III.3).
struct SnapshotResult {
  std::vector<Event> rows;  // one upsert event per live key
  int64_t snapshot_scn = 0;
};

/// The Databus bootstrap server (paper Section III.C): listens to the relay
/// event stream and provides long-term storage serving arbitrary long
/// look-back queries, isolating the source database from those clients.
///
/// Internally keeps two storages, exactly as Figure III.3:
///  - Log storage: the LogWriter appends every relay event;
///  - Snapshot storage: the LogApplier folds log rows into last-event-per-key,
///    and each row it folds leaves log storage, so each event is kept once.
///
/// Query types:
///  - consolidated delta since T: only the LAST of multiple updates to the
///    same key is returned ("fast playback" of time);
///  - consistent snapshot at U: all live rows plus U for relay resumption.
///
/// RPC: "bootstrap.delta" (same request encoding as databus.read) and
/// "bootstrap.snapshot" (request = filter only).
///
/// Observability: relay pulls run under a "databus.bootstrap.poll" span;
/// fetched/applied volume is counted in "databus.bootstrap.events_fetched"
/// and "databus.bootstrap.rows_applied", labeled by server name.
class BootstrapServer {
 public:
  BootstrapServer(std::string name, net::Address relay, net::Transport* network);
  ~BootstrapServer();

  BootstrapServer(const BootstrapServer&) = delete;
  BootstrapServer& operator=(const BootstrapServer&) = delete;

  const net::Address& address() const { return name_; }

  /// LogWriter step: pulls new events from the relay into log storage.
  /// Returns events fetched.
  Result<int64_t> PollRelayOnce();

  /// LogApplier step: moves up to `max_rows` pending log rows into snapshot
  /// storage. Returns rows applied. (Separated from PollRelayOnce so tests
  /// can exercise the log/snapshot split; call both in a loop in practice.)
  int64_t ApplyLogOnce(int64_t max_rows = 1 << 20);

  /// Consolidated delta: last update per key with scn > since_scn, matching
  /// the filter. Served from snapshot storage (plus replayed log tail) so
  /// its cost is proportional to live keys, not to history length.
  Result<std::vector<Event>> ConsolidatedDelta(int64_t since_scn,
                                               const Filter& filter) const;

  /// Consistent snapshot: every live row and the scn to resume from.
  Result<SnapshotResult> ConsistentSnapshot(const Filter& filter) const;

  /// Events in log storage: fetched from the relay and not yet applied.
  int64_t log_size() const;
  int64_t snapshot_keys() const;
  int64_t applied_scn() const;

 private:
  const std::string name_;
  const net::Address relay_;
  net::Transport* const network_;
  obs::MetricsRegistry* const metrics_;
  obs::Counter* const events_fetched_;
  obs::Counter* const rows_applied_;

  /// Never held across the relay pull (PollRelayOnce fetches unlocked).
  mutable Mutex mu_{"databus.bootstrap"};
  std::deque<Event> log_ LIDI_GUARDED_BY(mu_);    // unapplied log tail
  std::map<std::pair<std::string, std::string>, Event> snapshot_
      LIDI_GUARDED_BY(mu_);  // (source, key) -> last event (upsert or delete)
  int64_t log_fetched_scn_ LIDI_GUARDED_BY(mu_) =
      0;                                          // high-water mark from relay
  int64_t applied_scn_ LIDI_GUARDED_BY(mu_) = 0;
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_BOOTSTRAP_H_
