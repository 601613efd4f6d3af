// Gray-failure detection: slow-but-alive nodes.
//
// Crash-stop failures (node/data_node.h NodeState) are binary; the
// failures that actually erode tail latency in production are *gray* — a
// node that still answers health checks but serves every request 5-20x
// slower (degraded disk, noisy neighbor, thermal throttling). This
// detector watches each node's served latency, folds it into a per-node
// EWMA, compares against the fleet median, and flags nodes that stay
// above `slow_factor x median` for `consecutive_ticks` ticks. Flagged
// nodes are demoted out of eventual-read routing; placement never moves.
//
// Determinism: observations are integer micro-sums accumulated in
// node-id order from a serial pipeline section; evaluation walks
// std::map in node-id order. No wall clock, no RNG.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace abase {
namespace latency {

struct GrayDetectorOptions {
  bool enabled = false;
  /// EWMA smoothing of each node's per-tick mean served latency.
  double ewma_alpha = 0.3;
  /// A node turns gray when its EWMA exceeds slow_factor x fleet median.
  double slow_factor = 3.0;
  /// A gray node recovers when its EWMA drops below recover_factor x
  /// median (hysteresis: recover_factor < slow_factor).
  double recover_factor = 1.5;
  /// Ticks the condition must hold before the state flips.
  int consecutive_ticks = 3;
  /// Minimum served requests in a tick for that tick's mean to update
  /// the node's EWMA (a 2-request tick is noise, not signal).
  uint64_t min_samples = 8;
  /// Demote gray nodes out of eventual-read replica selection.
  bool demote_routing = true;
  /// Canary probes: every Nth eventual read per tenant ignores the
  /// demotion, so a flagged node keeps producing latency samples —
  /// without probes a demoted node's EWMA freezes and it can never be
  /// observed recovering. 0 disables probing (full demotion).
  int probe_interval = 16;
};

class GrayFailureDetector {
 public:
  /// One state flip, emitted by Evaluate in node-id order.
  struct Transition {
    NodeId node = kInvalidNode;
    bool now_gray = false;  ///< false = recovered.
  };

  explicit GrayFailureDetector(GrayDetectorOptions options = {})
      : options_(options) {}

  const GrayDetectorOptions& options() const { return options_; }

  /// Accumulates one tick's served latency for `node` (integer sum —
  /// order-independent). Call once per node per tick, from a serial
  /// section; count 0 is a no-op.
  void ObserveTick(NodeId node, uint64_t latency_sum_micros, uint64_t count);

  /// Tick boundary: folds the accumulated sums into the EWMAs, compares
  /// against the fleet median, advances the hysteresis streaks, and
  /// returns the state flips (node-id order). Clears the tick sums.
  std::vector<Transition> Evaluate();

  bool IsGray(NodeId node) const {
    auto it = nodes_.find(node);
    return it != nodes_.end() && it->second.gray;
  }

  /// Current latency EWMA of `node` in micros (0 = never observed).
  double Ewma(NodeId node) const {
    auto it = nodes_.find(node);
    return it == nodes_.end() ? 0 : it->second.ewma;
  }

  /// Median of all observed nodes' EWMAs as of the last Evaluate().
  double FleetMedian() const { return fleet_median_; }

  size_t GrayCount() const {
    size_t n = 0;
    for (const auto& [id, st] : nodes_) n += st.gray ? 1 : 0;
    return n;
  }

 private:
  struct NodeStat {
    uint64_t tick_sum = 0;    ///< Micros served this tick.
    uint64_t tick_count = 0;  ///< Requests served this tick.
    double ewma = 0;
    bool has_ewma = false;
    bool gray = false;
    int streak = 0;  ///< Consecutive ticks the flip condition held.
  };

  GrayDetectorOptions options_;
  std::map<NodeId, NodeStat> nodes_;  ///< Ordered: deterministic walks.
  double fleet_median_ = 0;
  std::vector<double> median_scratch_;
};

}  // namespace latency
}  // namespace abase
