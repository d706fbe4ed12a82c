// Simulated message-passing network.
//
// Everything runs in one process, so a "message" is a callback scheduled
// after a sampled propagation delay plus an optional serialisation delay
// (size / bandwidth). Per-link FIFO ordering is enforced by default — jitter
// never reorders messages on the same (src, dst) pair, matching a TCP
// connection — because schedulers downstream rely on feedback arriving in
// causal order.
//
// A sender hands over either one message (send) or a fan-out: every message
// it emits at one instant, e.g. all ops of a request or all updates of one
// progress round (send_fanout). Each message of a fan-out is counted, checked
// against the partitions and drawn for loss in send order, exactly as a
// run of single sends would be. What a fan-out saves is events: with a
// constant latency and no bandwidth term every message arrives exactly
// `latency` after it is sent, so the surviving messages of a fan-out share
// ONE delivery event on the simulator's FIFO lane (O(1) instead of a heap
// push and pop per message), which runs their receivers in send order. Such
// a network skips the per-link clamp, the identity there. A jittered or
// bandwidth-limited network gives each surviving message its own heap event
// at its own sampled arrival. Dispatch order is the same either way: the
// sends of a fan-out take consecutive sequence numbers at one time, so
// nothing else can run between them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace das::net {

/// Network node address. Clients and servers share one address space; the
/// cluster assigns servers [0, N) and clients [N, N+C).
using NodeId = std::uint32_t;

/// One-way propagation delay family.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Duration sample(Rng& rng) const = 0;
  virtual Duration mean() const = 0;
  virtual std::string describe() const = 0;
  /// True iff sample() always returns mean() and draws no randomness.
  virtual bool is_constant() const { return false; }
};

using LatencyPtr = std::shared_ptr<const LatencyModel>;

/// Constant delay.
LatencyPtr make_constant_latency(Duration d);
/// Uniform on [lo, hi].
LatencyPtr make_uniform_latency(Duration lo, Duration hi);
/// Lognormal with the given mean and underlying-normal sigma — the classic
/// "mostly tight, occasionally spiky" datacenter RTT shape.
LatencyPtr make_lognormal_latency(Duration mean, double sigma);

/// Per-network traffic counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  /// Subset of messages_dropped destroyed by a link partition (fault layer).
  std::uint64_t messages_dropped_partition = 0;
  Bytes bytes_sent = 0;
  /// Message groups handed over: one per send(), one per send_fanout().
  std::uint64_t fanouts_sent = 0;
  /// Subset of fanouts_sent in which every message was dropped (nothing
  /// scheduled).
  std::uint64_t fanouts_lost = 0;
};

/// One message of a fan-out: its destination and size on the wire, and —
/// filled in by send_fanout — whether it survived the partitions and loss.
struct Message {
  NodeId to = 0;
  Bytes size = 0;
  bool delivered = false;
};

/// send_fanout's delivery index for "every delivered message, in order".
inline constexpr std::uint32_t kAllDelivered = 0xFFFFFFFFu;

class Network {
 public:
  struct Config {
    LatencyPtr latency;
    /// Serialisation rate in bytes per microsecond; 0 disables the
    /// size-dependent component (infinitely fast NIC).
    double bandwidth_bytes_per_us = 0.0;
    /// Keep per-(src,dst) delivery order even under jitter.
    bool fifo_per_link = true;
    /// Independent per-message drop probability in [0, 1); dropped messages
    /// are counted but never delivered (fault injection — end-to-end
    /// recovery is the clients' responsibility).
    double loss_probability = 0.0;
    /// Number of node addresses in play (the cluster sets servers+clients).
    /// Nonzero switches the FIFO clamp to a dense num_nodes^2 table — one
    /// indexed load per message instead of a hash probe. 0 keeps the sparse
    /// map for callers with an open-ended address space.
    std::uint32_t num_nodes = 0;
  };

  Network(sim::Simulator& sim, Config config, Rng rng);

  /// Sends `size` bytes from `from` to `to`; `deliver` runs at the receiver
  /// when the message arrives. Taken by rvalue reference and moved through
  /// delivery scheduling: the pooled callback type is never copied (lambdas
  /// convert to a temporary EventFn at the call site).
  void send(NodeId from, NodeId to, Bytes size, sim::EventFn&& deliver);

  /// Sends every message of `msgs` from `from`, deciding each one in order
  /// exactly as send() would, and records the outcome in Message::delivered.
  /// `make_delivery(index)` builds a delivery callback: on a constant-latency
  /// network it is called once, with kAllDelivered, and its callback runs on
  /// the lane at the one instant every delivered message arrives; otherwise
  /// it is called once per delivered message, with that message's index,
  /// and each callback is scheduled at that message's own arrival. Nothing
  /// is built when every message is dropped. `msgs` must outlive the
  /// deliveries. Returns the number of delivery events scheduled.
  template <typename MakeDelivery>
  std::uint32_t send_fanout(NodeId from, std::span<Message> msgs,
                            MakeDelivery&& make_delivery) {
    DAS_CHECK(!msgs.empty());
    ++stats_.fanouts_sent;
    std::uint32_t events = 0;
    if (use_lane_) {
      bool any = false;
      for (Message& m : msgs) {
        m.delivered = admit(from, m.to, m.size);
        any = any || m.delivered;
      }
      if (any) {
        sim_.schedule_fifo(sim_.now() + lane_latency_, make_delivery(kAllDelivered));
        events = 1;
      }
    } else {
      // Admission and the latency draw interleave per message, as in a run
      // of single sends.
      for (std::uint32_t i = 0; i < msgs.size(); ++i) {
        Message& m = msgs[i];
        m.delivered = admit(from, m.to, m.size);
        if (!m.delivered) continue;
        sim_.schedule_at(heap_arrival(from, m.to, m.size), make_delivery(i));
        ++events;
      }
    }
    if (events == 0) ++stats_.fanouts_lost;
    return events;
  }

  /// Fault layer: cuts (or heals) the undirected link between `a` and `b`.
  /// While cut, every message on the link is destroyed — before any RNG
  /// draw, so partitions never perturb the loss/latency streams of the
  /// surviving traffic. Idempotent per direction.
  void set_partitioned(NodeId a, NodeId b, bool cut);
  bool partitioned(NodeId from, NodeId to) const;

  /// Fault layer: an additional cluster-wide drop probability layered on top
  /// of Config::loss_probability for the duration of a loss burst (0 = no
  /// burst). Burst drops consume one RNG draw per message, exactly like base
  /// loss.
  void set_burst_loss(double p);
  double burst_loss() const { return burst_loss_; }

  const NetworkStats& stats() const { return stats_; }
  Duration mean_latency() const { return config_.latency->mean(); }

 private:
  /// Counts a message and decides whether it survives: false when a
  /// partition, the base loss or a loss burst destroys it.
  bool admit(NodeId from, NodeId to, Bytes size);
  /// Arrival of a surviving message off the lane: sampled latency plus
  /// serialisation, clamped to keep per-link FIFO order.
  SimTime heap_arrival(NodeId from, NodeId to, Bytes size);
  SimTime* link_last_slot(NodeId from, NodeId to);
  char& partition_slot(NodeId from, NodeId to);

  sim::Simulator& sim_;
  Config config_;
  /// Deliveries go on the simulator's FIFO lane, `lane_latency_` after their
  /// send (constant latency, no bandwidth term); fixed at construction.
  bool use_lane_ = false;
  Duration lane_latency_ = 0;
  Rng rng_;
  NetworkStats stats_;
  /// Last scheduled delivery time per directed link, for FIFO clamping.
  /// Dense table when num_nodes is known (indexed from*num_nodes+to; the
  /// initial 0.0 is the clamp's identity), sparse fallback otherwise.
  std::vector<SimTime> link_last_dense_;
  FlatMap<std::uint64_t, SimTime> link_last_sparse_;
  /// Directed partition state, same dense/sparse split as the FIFO clamp.
  /// `partitions_active_` counts cut directed links so the fault-free send
  /// path pays one integer compare and never touches the tables.
  std::vector<char> partition_dense_;
  FlatMap<std::uint64_t, char> partition_sparse_;
  std::uint32_t partitions_active_ = 0;
  double burst_loss_ = 0.0;
};

}  // namespace das::net
