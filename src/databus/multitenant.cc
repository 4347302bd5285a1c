#include "databus/multitenant.h"

#include <algorithm>

namespace lidi::databus {

Status MultiTenantRelay::AddTenant(const std::string& tenant,
                                   const sqlstore::Database* source) {
  if (tenant.empty() || tenant.find('/') != std::string::npos) {
    return Status::InvalidArgument("bad tenant name: " + tenant);
  }
  MutexLock lock(&mu_);
  if (tenants_.count(tenant) > 0) return Status::AlreadyExists(tenant);
  RelayOptions options;
  // Equal share of the process budget per tenant: the isolation property.
  const int64_t share = std::max<int64_t>(
      1, total_buffer_events_ / static_cast<int64_t>(tenants_.size() + 1));
  options.buffer_capacity_events = share;
  options.poll_batch_transactions = std::max<int64_t>(1, share / 2);
  tenants_[tenant] = std::make_shared<Relay>(TenantAddress(tenant), source,
                                             network_, options);
  // Rebalance every tenant to the new equal share.
  for (auto& [name, relay] : tenants_) relay->SetBufferCapacity(share);
  return Status::OK();
}

Status MultiTenantRelay::RemoveTenant(const std::string& tenant) {
  MutexLock lock(&mu_);
  if (tenants_.erase(tenant) == 0) return Status::NotFound(tenant);
  if (!tenants_.empty()) {
    const int64_t share = std::max<int64_t>(
        1, total_buffer_events_ / static_cast<int64_t>(tenants_.size()));
    for (auto& [name, relay] : tenants_) relay->SetBufferCapacity(share);
  }
  return Status::OK();
}

Result<int64_t> MultiTenantRelay::PollAllOnce() {
  // Snapshot shared ownership, then poll unlocked: each poll is an
  // upstream RPC, and the shared_ptr keeps a relay alive even if
  // RemoveTenant races with the poll.
  std::vector<std::shared_ptr<Relay>> relays;
  {
    MutexLock lock(&mu_);
    for (auto& [name, relay] : tenants_) relays.push_back(relay);
  }
  int64_t total = 0;
  for (const auto& relay : relays) {
    auto n = relay->PollOnce();
    if (!n.ok()) return n;
    total += n.value();
  }
  return total;
}

int64_t MultiTenantRelay::BufferedEvents(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->buffered_events();
}

int64_t MultiTenantRelay::BufferShare() const {
  MutexLock lock(&mu_);
  return std::max<int64_t>(
      1, total_buffer_events_ / std::max<size_t>(1, tenants_.size()));
}

}  // namespace lidi::databus
