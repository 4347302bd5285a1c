#include "espresso/replication.h"

namespace lidi::espresso {

Status EspressoRelay::Append(const std::string& database, int partition,
                             std::vector<databus::Event> events) {
  if (events.empty()) return Status::OK();
  MutexLock lock(&mu_);
  databus::EventBuffer& buffer = buffers_[{database, partition}];
  const int64_t scn = events.front().scn;
  if (scn != buffer.max_scn() + 1) {
    return Status::ObsoleteVersion(
        "partition " + std::to_string(partition) + " timeline at scn " +
        std::to_string(buffer.max_scn()) + ", rejecting txn scn " +
        std::to_string(scn));
  }
  buffer.Append(events);
  return Status::OK();
}

Result<std::vector<databus::Event>> EspressoRelay::Read(
    const std::string& database, int partition, int64_t since_scn,
    int64_t max_events) const {
  MutexLock lock(&mu_);
  auto it = buffers_.find({database, partition});
  if (it == buffers_.end()) return std::vector<databus::Event>{};
  return it->second.Read(since_scn, max_events, databus::Filter{});
}

int64_t EspressoRelay::MaxScn(const std::string& database,
                              int partition) const {
  MutexLock lock(&mu_);
  auto it = buffers_.find({database, partition});
  return it == buffers_.end() ? 0 : it->second.max_scn();
}

int64_t EspressoRelay::TotalEvents() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const auto& [key, buffer] : buffers_) total += buffer.size();
  return total;
}

}  // namespace lidi::espresso
