#include "databus/client.h"

#include <algorithm>

#include "common/coding.h"

namespace lidi::databus {

namespace {
// Events requested per relay read or bootstrap delta.
constexpr int64_t kMaxBatchEvents = 4096;
}  // namespace

DatabusClient::DatabusClient(std::string name, net::Address relay,
                             net::Address bootstrap, net::Transport* network,
                             Consumer* consumer, ClientOptions options)
    : name_(std::move(name)),
      relay_(std::move(relay)),
      bootstrap_(std::move(bootstrap)),
      network_(network),
      consumer_(consumer),
      options_(std::move(options)) {}

Result<int64_t> DatabusClient::DeliverBatch(const std::vector<Event>& events) {
  int64_t delivered = 0;
  for (const Event& event : events) {
    // Declarative transformation: reshape or drop before the consumer.
    const Event* to_deliver = &event;
    Event transformed;
    if (!options_.transformation.empty()) {
      auto result = options_.transformation.Apply(event);
      if (!result.ok()) return result.status();
      if (!result.value().has_value()) {
        // Filtered out; still advances the checkpoint.
        checkpoint_scn_ = std::max(checkpoint_scn_, event.scn);
        has_state_ = true;
        continue;
      }
      transformed = std::move(*result.value());
      to_deliver = &transformed;
    }
    Status s;
    for (int attempt = 0; attempt <= options_.max_event_retries; ++attempt) {
      s = consumer_->OnEvent(*to_deliver);
      if (s.ok()) break;
    }
    if (!s.ok()) {
      // The consumer kept failing; skip the event so the stream continues
      // (the alternative — halting — would wedge the pipeline).
      ++events_skipped_;
    } else {
      ++delivered;
      ++events_delivered_;
    }
    checkpoint_scn_ = std::max(checkpoint_scn_, event.scn);
    has_state_ = true;
  }
  if (!events.empty()) consumer_->OnCheckpoint(checkpoint_scn_);
  return delivered;
}

Result<int64_t> DatabusClient::BootstrapAndResume() {
  ++bootstrap_switchovers_;
  if (!has_state_ && checkpoint_scn_ == 0) {
    // No state at all: consistent snapshot at U, then resume from U.
    consumer_->OnBootstrap(/*snapshot_phase=*/true);
    std::string request;
    options_.filter.EncodeTo(&request);
    auto r = network_->Call(name_, bootstrap_, "bootstrap.snapshot", request);
    if (!r.ok()) return r.status();
    Slice input(r.value());
    uint64_t snapshot_scn;
    if (!GetVarint64(&input, &snapshot_scn)) {
      return Status::Corruption("bad snapshot response");
    }
    auto rows = DecodeEventList(input);
    if (!rows.ok()) return rows.status();
    auto delivered = DeliverBatch(rows.value());
    if (!delivered.ok()) return delivered;
    checkpoint_scn_ =
        std::max(checkpoint_scn_, static_cast<int64_t>(snapshot_scn));
    has_state_ = true;
    return delivered;
  }
  // Fallen behind the relay: consolidated delta since the checkpoint
  // ("fast playback" — only the last update per key).
  consumer_->OnBootstrap(/*snapshot_phase=*/false);
  std::string request;
  EncodeReadRequest(checkpoint_scn_, kMaxBatchEvents,
                    options_.filter, &request);
  auto r = network_->Call(name_, bootstrap_, "bootstrap.delta", request);
  if (!r.ok()) return r.status();
  auto events = DecodeEventList(r.value());
  if (!events.ok()) return events.status();
  return DeliverBatch(events.value());
}

Result<int64_t> DatabusClient::PollOnce() {
  std::string request;
  EncodeReadRequest(checkpoint_scn_, kMaxBatchEvents,
                    options_.filter, &request);
  auto r = network_->Call(name_, relay_, "databus.read", request);
  if (r.ok()) {
    auto events = DecodeEventList(r.value());
    if (!events.ok()) return events.status();
    if (events.value().empty() && !has_state_ && !bootstrap_.empty() &&
        checkpoint_scn_ == 0) {
      // Fresh consumer with an empty relay response: may still need the
      // snapshot (the relay buffer may start past history).
      return BootstrapAndResume();
    }
    return DeliverBatch(events.value());
  }
  if (r.status().IsNotFound() && !bootstrap_.empty()) {
    // The relay evicted our range: long look-back via the bootstrap server,
    // then subsequent polls resume from the relay.
    return BootstrapAndResume();
  }
  return r.status();
}

Result<int64_t> DatabusClient::DrainToHead() {
  int64_t total = 0;
  for (;;) {
    auto r = PollOnce();
    if (!r.ok()) return r;
    if (r.value() == 0) return total;
    total += r.value();
  }
}

}  // namespace lidi::databus
