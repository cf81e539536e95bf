#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <cmath>

#include "comm/payload.hpp"
#include "core/epoch_driver.hpp"
#include "core/partition.hpp"
#include "mf/metrics.hpp"
#include "util/log.hpp"

namespace hcc::cluster {

HierarchicalHcc::HierarchicalHcc(HierarchicalConfig config)
    : config_(std::move(config)) {}

std::vector<double> HierarchicalHcc::node_shares(
    const sim::DatasetShape& shape) const {
  std::vector<double> times;
  times.reserve(config_.cluster.nodes.size());
  for (const auto& node : config_.cluster.nodes) {
    times.push_back(static_cast<double>(shape.nnz) /
                    node.platform.ideal_update_rate(shape));
  }
  return core::dp0_partition(times);
}

GlobalEpochTiming HierarchicalHcc::time_global_epoch(
    const sim::DatasetShape& shape, const std::vector<double>& shares,
    bool last) const {
  GlobalEpochTiming timing;

  // Level 1: node-local epochs run in parallel across nodes.
  for (std::size_t n = 0; n < config_.cluster.nodes.size(); ++n) {
    sim::DatasetShape node_shape = shape;
    node_shape.m = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(shape.m * shares[n])));
    node_shape.nnz = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(shape.nnz) * shares[n])));

    core::HccMfConfig node_config;
    node_config.sgd = config_.sgd;
    node_config.sgd.epochs = config_.local_epochs;
    node_config.comm = config_.comm;
    node_config.platform = config_.cluster.nodes[n].platform;
    node_config.manager = config_.manager;
    node_config.dataset_name = config_.dataset_name;
    const double node_s =
        core::HccMf(node_config).simulate(node_shape).total_virtual_s;
    timing.node_max_s = std::max(timing.node_max_s, node_s);
  }

  // Level 2: global Q exchange over the network (links are parallel, so
  // the per-node transfer time is the exposed one) ...
  const std::uint64_t q_elements = shape.n * shape.k;
  const comm::CodecKind kind = comm::effective_codec(config_.comm);
  // One Q pull plus one Q push per node; the directions may ride different
  // codecs (2-bit compresses only the push stream).
  double wire =
      comm::wire_bytes(q_elements, comm::pull_codec_kind(config_.comm),
                       shape.k) +
      comm::wire_bytes(q_elements, kind, shape.k);
  if (last) {
    // ... the final global push also delivers every node's P rows.
    wire += comm::wire_bytes(shape.m * shape.k, kind, shape.k);
  }
  timing.network_s = wire / (config_.cluster.network.bandwidth_gbs * 1e9) +
                     2.0 * config_.cluster.network.latency_s;

  // ... plus the serial global merge, one multiply-add per Q parameter per
  // node (Eq. 3 one level up).
  const double sync_bytes = static_cast<double>(q_elements) * 4.0;
  const double per_node_sync =
      3.0 * sync_bytes / (config_.cluster.global_server.mem_bandwidth_gbs * 1e9) +
      (sync_bytes / 4.0) / (config_.cluster.global_server.compute_gflops * 1e9);
  timing.global_sync_s =
      per_node_sync * static_cast<double>(config_.cluster.nodes.size());

  timing.total_s = timing.node_max_s + timing.network_s + timing.global_sync_s;
  return timing;
}

ClusterReport HierarchicalHcc::simulate(const sim::DatasetShape& shape) {
  ClusterReport report;
  report.node_shares = node_shares(shape);
  const std::uint32_t global_epochs = config_.sgd.epochs;
  const GlobalEpochTiming mid =
      time_global_epoch(shape, report.node_shares, false);
  const GlobalEpochTiming last =
      time_global_epoch(shape, report.node_shares, true);
  for (std::uint32_t e = 0; e < global_epochs; ++e) {
    const GlobalEpochTiming& t = (e + 1 == global_epochs) ? last : mid;
    report.epochs.push_back(t);
    report.total_virtual_s += t.total_s;
  }
  const double updates = static_cast<double>(shape.nnz) *
                         config_.local_epochs * global_epochs;
  report.updates_per_s =
      report.total_virtual_s > 0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.cluster.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  return report;
}

ClusterReport HierarchicalHcc::train(const data::RatingMatrix& train_ratings,
                                     const data::RatingMatrix* test_ratings) {
  // The global level runs the single-node epoch loop with nodes as its
  // workers: each node pulls Q, makes `local_epochs` passes over its slice
  // (the staleness/communication trade-off knob) and pushes a per-item
  // weighted delta.  Kill events address nodes and chaos transport events
  // drive each node's link to the global server.
  core::HccMfConfig level;
  level.sgd = config_.sgd;
  level.comm = config_.comm;
  level.dataset_name = config_.dataset_name;
  level.host_threads = config_.host_threads;
  level.exec = config_.exec;
  level.schedule = config_.schedule;
  level.fault = config_.fault;
  core::EpochDriver driver(std::move(level), config_.local_epochs);
  data::RatingMatrix matrix = driver.orient(train_ratings, test_ratings);
  const sim::DatasetShape& shape = driver.shape();

  ClusterReport report;
  report.node_shares = node_shares(shape);
  // A join rebuilds the partition from scratch, so runs with a fault plan
  // keep the pristine matrix around.
  data::RatingMatrix full;
  if (driver.fault_runtime().active()) full = matrix;
  std::vector<core::EpochDriver::Slot> slots;
  for (const auto& node : config_.cluster.nodes) slots.push_back({node.name});
  driver.build(std::move(matrix), report.node_shares, std::move(slots));
  MembershipTable members(config_.cluster.nodes.size());

  // Per-epoch records are pre-filled (the timings are precomputed
  // constants), so a post-rollback replay overwrites in place instead of
  // appending duplicates.
  const GlobalEpochTiming mid =
      time_global_epoch(shape, report.node_shares, false);
  const GlobalEpochTiming last =
      time_global_epoch(shape, report.node_shares, true);
  for (std::uint32_t e = 0; e < config_.sgd.epochs; ++e) {
    const GlobalEpochTiming& t = (e + 1 == config_.sgd.epochs) ? last : mid;
    report.epochs.push_back(t);
    report.total_virtual_s += t.total_s;
  }
  if (test_ratings != nullptr) {
    report.test_rmse.assign(config_.sgd.epochs, 0.0);
  }

  // Each scripted join fires exactly once per run: a rolled-back replay of
  // its epoch must not re-admit (and re-repartition) the node again.
  const fault::FaultPlan& plan = driver.config().fault.plan;
  std::vector<bool> join_latched(plan.events.size(), false);

  core::EpochDriver::Hooks hooks;
  // Scripted joins due this epoch: re-admit the node, rebuild the partition
  // from the pristine matrix over the active set, roll back to the last
  // consistent checkpoint and resume from there.
  hooks.before_epoch = [&](std::uint32_t epoch) {
    bool rejoined = false;
    for (std::size_t ei = 0; ei < plan.events.size(); ++ei) {
      const fault::FaultEvent& ev = plan.events[ei];
      if (ev.kind != fault::FaultKind::kJoin || ev.epoch != epoch ||
          join_latched[ei]) {
        continue;
      }
      join_latched[ei] = true;
      if (ev.worker >= members.size() || driver.alive()[ev.worker]) continue;
      driver.readmit(ev.worker);
      members.mark_joined(ev.worker, epoch);
      report.joined_nodes.push_back(ev.worker);
      rejoined = true;
      util::log_kv(util::LogLevel::kWarn, "cluster.join",
                   {util::kv("node", ev.worker), util::kv("epoch", epoch)});
    }
    if (!rejoined) return false;
    std::vector<double> fractions = report.node_shares;
    double sum = 0.0;
    for (std::size_t n = 0; n < fractions.size(); ++n) {
      if (!driver.alive()[n]) fractions[n] = 0.0;
      sum += fractions[n];
    }
    for (double& f : fractions) f /= sum;
    driver.repartition(full, std::move(fractions));
    return true;
  };
  hooks.epoch = [&](std::uint32_t epoch) {
    driver.step();
    if (test_ratings != nullptr) {
      report.test_rmse[epoch] =
          mf::rmse(driver.server().model(), *test_ratings);
    }
  };
  hooks.worker_lost = [&](std::uint32_t node, std::uint32_t epoch) {
    members.mark_dead(node, epoch);
  };
  driver.run(hooks);

  core::Server& global_server = driver.server();
  if (comm::effective_codec(config_.comm) != comm::CodecKind::kFp32) {
    global_server.roundtrip_p_through_codec();
  }
  report.dead_nodes = driver.dead_workers();
  report.recoveries = driver.fault_runtime().recoveries();

  const double updates = static_cast<double>(shape.nnz) *
                         config_.local_epochs * config_.sgd.epochs;
  report.updates_per_s =
      report.total_virtual_s > 0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.cluster.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  report.model = std::move(global_server.model());
  return report;
}

}  // namespace hcc::cluster
