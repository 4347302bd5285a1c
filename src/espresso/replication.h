#ifndef LIDI_ESPRESSO_REPLICATION_H_
#define LIDI_ESPRESSO_REPLICATION_H_

#include <map>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/status.h"
#include "databus/event.h"
#include "databus/event_buffer.h"

namespace lidi::espresso {

/// The Databus relay tier specialized for Espresso's internal replication
/// (paper Section IV.B): the master's binlog is shipped to the relay, where
/// it is "sharded into separate event buffers, one per partition"; each
/// slave partition consumes from its buffer.
///
/// SCNs here are per-partition timelines: each partition has exactly one
/// master at a time, which assigns dense increasing SCNs. The relay outlives
/// storage-node failures — that is the durability story: a change committed
/// semi-synchronously exists in the relay even if the master dies
/// immediately after. Each partition's buffer is a databus::EventBuffer,
/// unbounded: nothing is evicted yet. Append encodes a transaction's events
/// into it, and Read decodes copies out.
class EspressoRelay {
 public:
  /// Appends the events of one committed transaction (all same partition,
  /// same scn). Rejects SCNs that do not directly extend the partition's
  /// timeline (guards against split-brain double-masters).
  Status Append(const std::string& database, int partition,
                std::vector<databus::Event> events);

  /// Events for a partition with scn > since_scn, paged as
  /// databus::EventBuffer::Scan pages: up to max_events, then the rest of
  /// the last transaction.
  Result<std::vector<databus::Event>> Read(const std::string& database,
                                           int partition, int64_t since_scn,
                                           int64_t max_events) const;

  /// Highest SCN buffered for a partition (0 if none).
  int64_t MaxScn(const std::string& database, int partition) const;

  int64_t TotalEvents() const;

 private:
  using BufferKey = std::pair<std::string, int>;
  mutable Mutex mu_{"espresso.relay"};
  std::map<BufferKey, databus::EventBuffer> buffers_ LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::espresso

#endif  // LIDI_ESPRESSO_REPLICATION_H_
