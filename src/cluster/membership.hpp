// Elastic cluster membership (who is in the parameter-server group).
//
// The single-box framework never had to ask which workers exist — the
// platform spec was the roster.  A scale-out cluster does: a node whose
// link dies (fault::LinkDeadError), whose device is killed, or whose
// scripted `join:w<N>@e<E>` event fires changes the active set mid-run.
// MembershipTable is the one place that state lives: per-node status, the
// epoch each transition happened, and the obs mirrors
// (`cluster.active_nodes` gauge, `cluster.deaths` / `cluster.joins`
// counters) CI smoke checks read.
//
// The table is bookkeeping only — the *mechanics* of a transition (slice
// repartition, checkpoint rollback, worker rebuild) live in the epoch
// driver (core/epoch_driver.hpp), shared with the single-node trainer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace hcc::cluster {

enum class NodeState : std::uint8_t { kActive, kDead, kJoining };

const char* node_state_name(NodeState state);

/// One node's membership record.
struct NodeStatus {
  NodeState state = NodeState::kActive;
  std::uint32_t since_epoch = 0;  ///< global epoch of the last transition
};

class MembershipTable {
 public:
  explicit MembershipTable(std::size_t nodes);

  std::size_t size() const noexcept { return nodes_.size(); }
  NodeState state(std::size_t node) const { return nodes_[node].state; }
  bool is_active(std::size_t node) const {
    return nodes_[node].state == NodeState::kActive;
  }

  /// Death: the node leaves the group (LinkDeadError, kill event, ...).
  void mark_dead(std::size_t node, std::uint32_t epoch);

  /// Join/rejoin: the node (re)enters the group at `epoch`.  Passes
  /// through kJoining only notionally — the trainer rebuilds the
  /// partition synchronously, so the node is active on return.
  void mark_joined(std::size_t node, std::uint32_t epoch);

  std::size_t active_count() const noexcept;
  /// Per-node activity mask in node-id order (the executor's alive vector).
  std::vector<bool> active_mask() const;

  std::uint64_t deaths() const noexcept { return deaths_; }
  std::uint64_t joins() const noexcept { return joins_; }

  /// Node ids with a scripted join event at exactly `epoch` (the trainer
  /// latches each event separately so a post-rollback replay of the epoch
  /// does not re-fire it).
  static std::vector<std::uint32_t> joins_due(const fault::FaultPlan& plan,
                                              std::uint32_t epoch);

  std::string to_string() const;

 private:
  void publish();

  std::vector<NodeStatus> nodes_;
  std::uint64_t deaths_ = 0;
  std::uint64_t joins_ = 0;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Counter* deaths_counter_ = nullptr;
  obs::Counter* joins_counter_ = nullptr;
};

}  // namespace hcc::cluster
