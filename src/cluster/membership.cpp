#include "cluster/membership.hpp"

namespace hcc::cluster {

const char* node_state_name(NodeState state) {
  switch (state) {
    case NodeState::kActive: return "active";
    case NodeState::kDead: return "dead";
  }
  return "?";
}

MembershipTable::MembershipTable(std::size_t nodes) : nodes_(nodes) {
  auto& reg = obs::registry();
  active_gauge_ = &reg.gauge("cluster.active_nodes");
  deaths_counter_ = &reg.counter("cluster.deaths");
  joins_counter_ = &reg.counter("cluster.joins");
  publish();
}

void MembershipTable::mark_dead(std::size_t node, std::uint32_t epoch) {
  if (node >= nodes_.size() || nodes_[node].state == NodeState::kDead) return;
  nodes_[node] = {NodeState::kDead, epoch};
  ++deaths_;
  deaths_counter_->add(1);
  publish();
}

void MembershipTable::mark_joined(std::size_t node, std::uint32_t epoch) {
  if (node >= nodes_.size() || nodes_[node].state == NodeState::kActive) {
    return;
  }
  nodes_[node] = {NodeState::kActive, epoch};
  ++joins_;
  joins_counter_->add(1);
  publish();
}

std::size_t MembershipTable::active_count() const noexcept {
  std::size_t n = 0;
  for (const NodeStatus& s : nodes_) {
    if (s.state == NodeState::kActive) ++n;
  }
  return n;
}

std::string MembershipTable::to_string() const {
  std::string out;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!out.empty()) out += ' ';
    out += "node" + std::to_string(n) + "=" +
           node_state_name(nodes_[n].state) + "@e" +
           std::to_string(nodes_[n].since_epoch);
  }
  return out;
}

void MembershipTable::publish() {
  active_gauge_->set(static_cast<double>(active_count()));
}

}  // namespace hcc::cluster
