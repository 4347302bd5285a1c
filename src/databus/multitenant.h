#ifndef LIDI_DATABUS_MULTITENANT_H_
#define LIDI_DATABUS_MULTITENANT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "databus/relay.h"

namespace lidi::databus {

/// Multi-tenant relay hosting — the paper's named Databus future work
/// (Section III.E: "Future work includes ... multi-tenancy").
///
/// One relay process serves the change streams of many source databases
/// ("tenants"). Each tenant gets its own circular buffer and its own SCN
/// space (SCNs are per-source, so buffers cannot be merged), carved out of a
/// shared memory budget. The key tenancy property is isolation: a noisy
/// tenant can exhaust only its own buffer share, never evict a quiet
/// tenant's events.
///
/// Tenant streams are served under the address "<relay>/<tenant>" with the
/// ordinary databus.read protocol, so DatabusClient and BootstrapServer work
/// unchanged against a tenant stream.
class MultiTenantRelay {
 public:
  /// `total_buffer_events` is the process-wide buffer budget, divided
  /// evenly among tenants at AddTenant time (existing tenants keep their
  /// allocation; production systems would rebalance — documented trade-off).
  MultiTenantRelay(std::string name, net::Transport* network,
                   int64_t total_buffer_events = 1 << 20)
      : name_(std::move(name)),
        network_(network),
        total_buffer_events_(total_buffer_events) {}

  /// Registers a tenant database. Its stream is served at address
  /// "<relay-name>/<tenant>". AlreadyExists if the tenant is registered.
  Status AddTenant(const std::string& tenant, const sqlstore::Database* source);
  Status RemoveTenant(const std::string& tenant);

  /// Address a tenant's consumers connect to.
  std::string TenantAddress(const std::string& tenant) const {
    return name_ + "/" + tenant;
  }

  /// Polls every tenant's source. Returns total events ingested.
  Result<int64_t> PollAllOnce();

  int64_t BufferedEvents(const std::string& tenant) const;
  int64_t BufferShare() const;

 private:
  const std::string name_;
  net::Transport* const network_;
  const int64_t total_buffer_events_;

  mutable Mutex mu_{"databus.multitenant"};
  /// shared_ptr, not unique_ptr: PollAllOnce polls tenants with mu_
  /// released (a poll is an upstream RPC), so a concurrent RemoveTenant
  /// must not be able to destroy a relay mid-poll.
  std::map<std::string, std::shared_ptr<Relay>> tenants_
      LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::databus

#endif  // LIDI_DATABUS_MULTITENANT_H_
