#ifndef LIDI_NET_ADDRESS_H_
#define LIDI_NET_ADDRESS_H_

#include "net/transport.h"

namespace lidi::net {

/// Numbered tiers of the deployment. The typed address factory below
/// replaces the ad-hoc per-tier helpers (VoldemortAddress, BrokerAddress,
/// hand-built "voldemort-" + id strings) that used to be scattered across
/// src/voldemort, src/kafka and src/sim, so both transport backends resolve
/// node identity uniformly: the sim backend keys its handler table on the
/// canonical string, and the TCP backend maps the same string to a
/// listener port at RegisterPayload time.
///
/// Free-form addresses (client names, relay names, Espresso storage-node
/// names chosen by the deployment) remain plain strings; the factory covers
/// the tiers whose nodes are identified by a dense integer id.
enum class Tier {
  kVoldemort,         // "voldemort-<id>"
  kKafkaBroker,       // "kafka-broker-<id>"
  kEspressoNode,      // "espresso-node-<id>"
  kDatabusRelay,      // "relay-<id>"
  kDatabusBootstrap,  // "bootstrap-<id>"
};

/// Canonical address prefix of a tier (everything before the node id).
const char* TierPrefix(Tier tier);

/// Canonical address of node `node_id` in `tier`. The strings are stable
/// wire/trace identifiers — sim seed replay depends on them — so they must
/// never change for an existing tier.
Address MakeAddress(Tier tier, int node_id);

}  // namespace lidi::net

#endif  // LIDI_NET_ADDRESS_H_
