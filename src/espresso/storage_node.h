#ifndef LIDI_ESPRESSO_STORAGE_NODE_H_
#define LIDI_ESPRESSO_STORAGE_NODE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/clock.h"
#include "espresso/document.h"
#include "espresso/replication.h"
#include "espresso/schema.h"
#include "helix/helix.h"
#include "invidx/inverted_index.h"
#include "net/transport.h"
#include "sqlstore/database.h"

namespace lidi::espresso {

/// An Espresso storage node (paper Section IV.B): masters some partitions
/// and slaves others; maintains a consistent view of each document in a
/// local data store (sqlstore, the MySQL stand-in) and a local secondary
/// index (invidx, the Lucene stand-in) built from the index constraints in
/// the document schema.
///
/// Writes to master partitions are committed semi-synchronously: the change
/// is appended to the Espresso relay (one event buffer per partition) before
/// the commit is acknowledged, then applied to the local store and index.
/// Slave partitions consume their relay buffer in SCN order (timeline
/// consistency) via CatchUp.
///
/// RPC surface: espresso.get, espresso.put, espresso.delete, espresso.query,
/// espresso.txn, espresso.fetch-partition.
class StorageNode {
 public:
  StorageNode(std::string name, SchemaRegistry* registry, EspressoRelay* relay,
              net::Transport* network, const Clock* clock);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  const std::string& name() const { return name_; }

  /// Helix transition handler; wire into ConnectParticipant. SLAVE->MASTER
  /// first drains the partition's relay backlog ("consumes all outstanding
  /// changes ... then becomes master"); OFFLINE->SLAVE bootstraps a brand-new
  /// replica from the current master's snapshot plus relay catch-up.
  Status HandleTransition(const helix::Transition& transition);

  /// Lets the node look up partition masters for bootstrap (set after the
  /// Helix controller exists; breaking the construction cycle).
  void SetMasterLookup(
      std::function<std::string(const std::string& database, int partition)>
          lookup);

  bool IsMasterOf(const std::string& database, int partition) const;
  bool IsSlaveOf(const std::string& database, int partition) const;
  int64_t AppliedScn(const std::string& database, int partition) const;

  /// Slave applier: pulls and applies outstanding relay events for one
  /// partition / all slave partitions. Returns events applied.
  int64_t CatchUp(const std::string& database, int partition);
  int64_t CatchUpAll();

  /// Local read used by tests to inspect replicas directly.
  Result<DocumentRecord> LocalGet(const std::string& database,
                                  const std::string& table,
                                  const std::string& key) const;

  int64_t DocumentCount(const std::string& database,
                        const std::string& table) const;

 private:
  Result<std::string> HandleGet(Slice request) const;
  Result<std::string> HandleConditionalGet(Slice request) const;
  Result<std::string> HandlePut(Slice request);
  Result<std::string> HandleDelete(Slice request);
  Result<std::string> HandleQuery(Slice request) const;
  Result<std::string> HandleTxn(Slice request);
  Result<std::string> HandleFetchPartition(Slice request) const;

  /// Commits updates to a master partition: assigns the next SCN, appends
  /// to the relay (semi-sync), then applies locally, all under commit_mu_.
  Status MasterCommit(const std::string& database, int partition,
                      const std::vector<DocumentUpdate>& updates);

  /// Applies one transaction's events to the local store + index.
  Status ApplyEvents(const std::string& database, int partition,
                     const std::vector<databus::Event>& events);

  void IndexDocument(const std::string& database, const std::string& table,
                     const std::string& key, const DocumentRecord& record);
  void UnindexDocument(const std::string& database, const std::string& table,
                       const std::string& key);

  std::string StoreTable(const std::string& database,
                         const std::string& table) const {
    return database + "/" + table;
  }
  void EnsureTable(const std::string& database, const std::string& table);

  static std::string ResourceIdOf(const std::string& key);

  const std::string name_;
  SchemaRegistry* const registry_;
  EspressoRelay* const relay_;
  net::Transport* const network_;
  const Clock* const clock_;

  // tsa-ok: sqlstore::Database is internally synchronized (its own
  // commit/table lock hierarchy); mu_ guards the replica-role state only.
  sqlstore::Database store_;

  /// Serialises MasterCommit from SCN allocation through the relay append
  /// to the local apply, so concurrent writes on this master take distinct,
  /// dense SCNs. Held across the relay and the local store (both in-process)
  /// and taken before mu_; never held across the network.
  Mutex commit_mu_{"espresso.storage_node.commit"};

  /// Guards replica-role state and the index map. Never held across the
  /// relay, the network, or the local store (commits run on the sqlstore
  /// locks); index entries are created under it but searched via a stable
  /// pointer after release (entries are never erased).
  mutable Mutex mu_{"espresso.storage_node"};
  std::set<std::pair<std::string, int>> master_of_ LIDI_GUARDED_BY(mu_);
  std::set<std::pair<std::string, int>> slave_of_ LIDI_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, int64_t> applied_scn_
      LIDI_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<invidx::InvertedIndex>>
      indexes_ LIDI_GUARDED_BY(mu_);
  std::function<std::string(const std::string&, int)> master_lookup_
      LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::espresso

#endif  // LIDI_ESPRESSO_STORAGE_NODE_H_
