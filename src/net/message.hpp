// Wire messages of the distributed backbone protocol, all sent by one
// node state machine (proto::MaintenanceNode): its cold-start
// construction (paper §3: HELLO, CLUSTER_HEAD, NON_CLUSTER_HEAD,
// CH_HOP1, CH_HOP2, GATEWAY), the SD-CDS DATA relays, and the
// maintenance phase (MAINT_HELLO beacons plus the LCC rule-1/rule-2
// repair announcements; CH_HOP1/CH_HOP2/GATEWAY are reused as the
// incremental row and selection updates).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "core/neighbor_tables.hpp"

namespace manet::net {

/// Round-0 neighbor discovery beacon.
struct HelloMsg {};

/// "I am a clusterhead."
struct ClusterHeadMsg {};

/// "I joined cluster `head`."
struct NonClusterHeadMsg {
  NodeId head;
};

/// A non-clusterhead's 1-hop neighboring clusterheads.
struct ChHop1Msg {
  NodeSet heads;
};

/// A non-clusterhead's 2-hop clusterhead entries (head, via).
struct ChHop2Msg {
  std::vector<core::Hop2Entry> entries;
};

/// A clusterhead's gateway announcement, flooded 2 hops by the selected
/// nodes themselves (TTL counts remaining forwards). The maintenance
/// protocol reuses it as the incremental selection update, stamped with
/// a per-origin sequence number so cached re-announcements (sent to
/// newly formed links) can never roll a fresher selection back.
struct GatewayMsg {
  NodeId origin;     ///< selecting clusterhead
  NodeSet selected;  ///< its gateways (first- and second-hop)
  std::uint8_t ttl;
  std::uint32_t seq = 0;  ///< maintenance: origin's selection version
};

/// A broadcast data packet of the SD-CDS dynamic backbone: the upstream
/// clusterhead's identity, coverage set and forward-node set ride on the
/// packet (paper §3, "Broadcasting in a Cluster-Based SD-CDS Backbone").
struct DataMsg {
  NodeId origin_head;   ///< upstream head (kInvalidNode for a handoff)
  NodeSet coverage;     ///< C(origin) piggyback
  NodeSet forward_set;  ///< F(origin) piggyback
};

/// Maintenance-phase HELLO beacon (src/proto): sent once per mobility
/// tick by every node. Carries the sender's cluster status (so new
/// neighbors can seed their caches and heads can spot added head-head
/// edges); receipt alone is the paper's bidirectional-link verification
/// — a node that misses a neighbor's beacon expires the link. No row
/// payload rides on it (receivers never read one), which keeps the
/// per-tick all-nodes beacon storm allocation-free.
struct MaintHelloMsg {
  bool is_head;
  NodeId head;  ///< sender's clusterhead (itself when is_head)
};

/// LCC rule-1 announcement of an affected previous head (one whose
/// neighborhood gained a head-head edge this tick). `final_` false means
/// "my survival depends on a smaller affected head, decision pending" —
/// members hearing it know they may have to re-affiliate.
struct R1StatusMsg {
  bool final_;
  bool survived;  ///< meaningful only when final_
};

/// LCC rule-2 announcement of a node whose affiliation broke (or may
/// break). Pending first, then final with the chosen head; `declared`
/// marks a self-declaration (the sender is now a clusterhead).
struct R2StatusMsg {
  bool final_;
  NodeId head;    ///< new affiliation (sender id when declared)
  bool declared;  ///< sender became a clusterhead
};

/// Message body (one alternative per protocol message type).
using MessageBody =
    std::variant<HelloMsg, ClusterHeadMsg, NonClusterHeadMsg, ChHop1Msg,
                 ChHop2Msg, GatewayMsg, DataMsg, MaintHelloMsg, R1StatusMsg,
                 R2StatusMsg>;

/// A transmission on the (ideal, collision-free) broadcast medium.
///
/// The causal envelope: `trace_id` is a per-simulator monotonic send
/// sequence number stamped at transmission (seq-derived, never
/// wall-clock, so two runs of the same seed assign identical ids);
/// `parent_id` names the message that caused this send (0 = a wave root,
/// e.g. a timer-paced beacon); `depth` counts causal hops from the root.
/// The ids feed the flow events and the journal of an attached
/// obs::Session — protocols that don't declare causes simply send roots.
///
/// Field order packs the two 32-bit fields together after the 8-aligned
/// ones: a million-message flight buffer is measurably smaller than with
/// the naive declaration order (one pointer-size hole per message gone).
struct Message {
  MessageBody body;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
  NodeId from = 0;
  std::uint32_t depth = 0;
};

/// Wire name of a message body's alternative (trace labels, reports).
inline const char* message_type_name(const MessageBody& body) {
  static constexpr const char* kNames[] = {
      "HELLO",   "CLUSTER_HEAD", "NON_CLUSTER_HEAD",
      "CH_HOP1", "CH_HOP2",      "GATEWAY",
      "DATA",    "MAINT_HELLO",  "R1_STATUS",
      "R2_STATUS"};
  static_assert(std::variant_size_v<MessageBody> ==
                sizeof(kNames) / sizeof(kNames[0]));
  return kNames[body.index()];
}

/// Per-type transmission counters — the material for the paper's O(n)
/// communication-complexity claim.
struct MessageCounts {
  std::size_t hello = 0;
  std::size_t cluster_head = 0;
  std::size_t non_cluster_head = 0;
  std::size_t ch_hop1 = 0;
  std::size_t ch_hop2 = 0;
  std::size_t gateway = 0;
  std::size_t data = 0;
  std::size_t maint_hello = 0;
  std::size_t r1_status = 0;
  std::size_t r2_status = 0;

  /// Construction-phase total (HELLO through GATEWAY).
  std::size_t total() const {
    return hello + cluster_head + non_cluster_head + ch_hop1 + ch_hop2 +
           gateway;
  }

  /// Maintenance-phase total: beacons, repair announcements, and the
  /// reused row/selection updates (src/proto never sends the
  /// construction-only types).
  std::size_t maintenance_total() const {
    return maint_hello + r1_status + r2_status + ch_hop1 + ch_hop2 + gateway;
  }

  void count(const MessageBody& body);

  MessageCounts& operator+=(const MessageCounts& b) {
    hello += b.hello;
    cluster_head += b.cluster_head;
    non_cluster_head += b.non_cluster_head;
    ch_hop1 += b.ch_hop1;
    ch_hop2 += b.ch_hop2;
    gateway += b.gateway;
    data += b.data;
    maint_hello += b.maint_hello;
    r1_status += b.r1_status;
    r2_status += b.r2_status;
    return *this;
  }

  friend MessageCounts operator-(MessageCounts a, const MessageCounts& b) {
    a.hello -= b.hello;
    a.cluster_head -= b.cluster_head;
    a.non_cluster_head -= b.non_cluster_head;
    a.ch_hop1 -= b.ch_hop1;
    a.ch_hop2 -= b.ch_hop2;
    a.gateway -= b.gateway;
    a.data -= b.data;
    a.maint_hello -= b.maint_hello;
    a.r1_status -= b.r1_status;
    a.r2_status -= b.r2_status;
    return a;
  }
};

}  // namespace manet::net
