#ifndef LIDI_VOLDEMORT_CLUSTER_H_
#define LIDI_VOLDEMORT_CLUSTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace lidi::voldemort {

/// A physical Voldemort node. Nodes are grouped into zones (co-located
/// groups, typically datacenters) for the multi-datacenter routing variant
/// (paper Section II.B, Routing).
struct Node {
  int id = -1;
  std::string address;  // net::Address the node's server listens on
  int zone_id = 0;
};

/// A zone with its proximity list: other zones ordered nearest-first.
struct Zone {
  int id = 0;
  std::vector<int> proximity_list;
};

/// Cluster topology: the hash ring is split into `num_partitions` equal
/// logical partitions, each owned by exactly one node. Unlike Chord-style
/// DHTs, the complete topology lives on every node and client, making
/// lookups O(1) (Section II.A).
class Cluster {
 public:
  Cluster() = default;
  /// partition_ownership[p] = node id owning logical partition p.
  Cluster(std::vector<Node> nodes, std::vector<int> partition_ownership,
          std::vector<Zone> zones = {});

  /// Builds a cluster with `num_partitions` assigned round-robin over nodes.
  static Cluster Uniform(std::vector<Node> nodes, int num_partitions);

  int num_partitions() const {
    return static_cast<int>(partition_ownership_.size());
  }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Zone>& zones() const { return zones_; }

  const Node* GetNode(int node_id) const;
  int OwnerOfPartition(int partition) const {
    return partition_ownership_[partition];
  }

  /// Partitions owned by `node_id`, ring order.
  std::vector<int> PartitionsOf(int node_id) const;

  /// Reassigns a partition to a new owner (rebalancing / dynamic cluster
  /// membership, Section II.B Admin Service).
  void MovePartition(int partition, int new_owner);

 private:
  std::vector<Node> nodes_;
  std::vector<int> partition_ownership_;
  std::vector<Zone> zones_;
};

/// Per-store configuration (paper Section II.B: "Every store has its set of
/// configurations" — replication factor N, required reads R, required
/// writes W, plus serialization schema, which lidi leaves to the caller).
struct StoreDefinition {
  std::string name;
  int replication_factor = 3;  // N
  int required_reads = 2;      // R
  int required_writes = 2;     // W
  /// Zone-aware stores: replicas must span at least this many zones.
  int zone_count_reads = 0;
  int zone_count_writes = 0;
  /// "bdb" (read-write, log-structured) or "read-only".
  std::string engine_type = "bdb";
};

}  // namespace lidi::voldemort

#endif  // LIDI_VOLDEMORT_CLUSTER_H_
