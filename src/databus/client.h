#ifndef LIDI_DATABUS_CLIENT_H_
#define LIDI_DATABUS_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "databus/event.h"
#include "databus/relay.h"
#include "databus/transformation.h"
#include "net/transport.h"

namespace lidi::databus {

/// A Databus consumer: business logic invoked per event (push interface).
/// Returning non-OK triggers the client library's retry logic.
class Consumer {
 public:
  virtual ~Consumer() = default;
  /// `event` is valid only during the call: the client reuses it for the
  /// next event.
  virtual Status OnEvent(const Event& event) = 0;
  /// Called when the client's checkpoint advances (after a processed batch).
  virtual void OnCheckpoint(int64_t scn) {}
  /// Called when the client falls back to bootstrap (diagnostics).
  virtual void OnBootstrap(bool snapshot_phase) {}
};

/// Convenience adapter from a callable.
class CallbackConsumer : public Consumer {
 public:
  explicit CallbackConsumer(std::function<Status(const Event&)> fn)
      : fn_(std::move(fn)) {}
  Status OnEvent(const Event& event) override { return fn_(event); }

 private:
  std::function<Status(const Event&)> fn_;
};

struct ClientOptions {
  /// Retries per event before the batch is abandoned (paper III.C: "Retry
  /// logic if consumers fail to process some events").
  int max_event_retries = 3;
  /// Server-side filter pushed down to relays/bootstrap servers.
  Filter filter;
  /// Declarative transformation applied client-side before the consumer
  /// sees events (projection / rename / where; see transformation.h).
  Transformation transformation;
};

/// The Databus client library (paper Section III.C): the glue between
/// relays/bootstrap servers and consumer business logic. Tracks progress in
/// the event stream (the consumer's state is its checkpoint SCN), pulls from
/// the relay, and switches to the bootstrap server automatically when the
/// relay no longer buffers the checkpoint — consuming either a consolidated
/// delta (some state) or a consistent snapshot (no state), then returning to
/// the relay.
class DatabusClient {
 public:
  DatabusClient(std::string name, net::Address relay, net::Address bootstrap,
                net::Transport* network, Consumer* consumer,
                ClientOptions options = {});

  /// One pull-process cycle. Returns the number of events delivered to the
  /// consumer. Transparently handles relay -> bootstrap -> relay switchover.
  Result<int64_t> PollOnce();

  /// Runs PollOnce until the stream is drained (returns 0 events).
  Result<int64_t> DrainToHead();

  int64_t checkpoint_scn() const { return checkpoint_scn_; }
  /// Restores a persisted checkpoint (consumers persist their own state).
  void RestoreCheckpoint(int64_t scn) { checkpoint_scn_ = scn; }

  int64_t bootstrap_switchovers() const { return bootstrap_switchovers_; }
  int64_t events_delivered() const { return events_delivered_; }
  int64_t events_skipped() const { return events_skipped_; }

 private:
  /// Hands each of views_ to the consumer through event_, advancing the
  /// checkpoint. The reply views_ point into must be pinned meanwhile.
  Result<int64_t> Deliver();
  Result<int64_t> BootstrapAndResume();

  const std::string name_;
  const net::Address relay_;
  const net::Address bootstrap_;
  net::Transport* const network_;
  Consumer* const consumer_;
  const ClientOptions options_;

  int64_t checkpoint_scn_ = 0;
  bool has_state_ = false;  // false until the first successful consumption
  int64_t bootstrap_switchovers_ = 0;
  int64_t events_delivered_ = 0;
  int64_t events_skipped_ = 0;

  /// Reused from poll to poll, so a steady stream allocates nothing here:
  /// the events of the reply being delivered, and the one event the
  /// consumer is handed, whose strings keep their capacity.
  std::vector<EventView> views_;
  Event event_;
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_CLIENT_H_
