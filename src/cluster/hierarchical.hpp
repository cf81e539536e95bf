// Hierarchical (two-level) HCC-MF across a cluster (extension).
//
// Level 1: inside each node, plain HCC-MF — a local parameter server, DP
// partitioning over the node's CPUs/GPUs, COMM over PCIe/UPI.
// Level 2: across nodes, the same parameter-server pattern once more — the
// rating matrix's rows are split across nodes (so each node's P rows stay
// node-local, Strategy 1 applies at cluster scope too), and a global server
// on node 0 merges the nodes' Q deltas over the network each global epoch.
//
// Timing: node epochs run in parallel (each from the intra-node engine);
// the global exchange adds network transfer (parallel links) plus a serial
// global sync — the same Eq. 1 structure one level up.  `local_epochs`
// trades global communication against staleness, the standard knob this
// architecture adds over single-node HCC.
//
// Functionally each node behaves exactly like one HCC worker against the
// global server (pull Q, train the node's slice, push a per-item-weighted
// delta), so train() runs HccMf's epoch loop (core::EpochDriver) with the
// nodes as its workers, each making `local_epochs` passes per compute.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/membership.hpp"
#include "core/hccmf.hpp"
#include "fault/plan.hpp"

namespace hcc::cluster {

/// Configuration of a hierarchical run.
struct HierarchicalConfig {
  mf::SgdConfig sgd;
  comm::CommConfig comm;           ///< used at both levels (FP16 etc.)
  ClusterSpec cluster;
  std::uint32_t local_epochs = 1;  ///< node-local epochs per global epoch
  core::DataManagerOptions manager;
  std::string dataset_name;
  std::uint32_t host_threads = 0;  ///< functional ASGD threads per node
  /// Execution mode of the functional global epoch (see
  /// core/epoch_executor.hpp): kSerial runs each alive node's whole
  /// pipeline, in id order, on one thread — deterministic; kParallel runs
  /// each node's pipeline on its own thread against a striped global
  /// server — the closest functional analogue of real cluster nodes
  /// working concurrently.  Both rethrow failures by the same priority.
  core::ExecOptions exec;
  /// Cache-aware visit order for each node's slice (see data/schedule.hpp);
  /// kAsIs (default) keeps the legacy bit-identical trajectory.
  data::ScheduleOptions schedule;
  /// Elastic membership + fault tolerance at cluster scope: kill events
  /// address *nodes*, `join:w<N>@e<E>` re-admits one, chaos transport
  /// events drive each node's link to the global server, and node death
  /// (kill or exhausted link) triggers repartition + checkpoint rollback.
  /// The divergence guard rolls back with a halved rate, plan or no plan.
  /// Defaults keep a healthy run bit-identical to the pre-elastic trainer.
  fault::FaultOptions fault;
};

/// Per-global-epoch timing decomposition.
struct GlobalEpochTiming {
  double node_max_s = 0.0;      ///< slowest node's local epoch(s)
  double network_s = 0.0;       ///< global pull+push over the interconnect
  double global_sync_s = 0.0;   ///< serial Q merge on the global server
  double total_s = 0.0;
};

/// The result of a hierarchical run.
struct ClusterReport {
  std::vector<double> node_shares;       ///< data split across nodes
  std::vector<GlobalEpochTiming> epochs; ///< one per *global* epoch
  double total_virtual_s = 0.0;
  double updates_per_s = 0.0;
  double ideal_updates_per_s = 0.0;
  double utilization = 0.0;
  std::vector<double> test_rmse;         ///< per global epoch (functional)
  std::optional<mf::FactorModel> model;
  /// Elastic-membership tallies (empty / zero on a fault-free run).
  std::vector<std::uint32_t> dead_nodes;    ///< ids, in order of death
  std::vector<std::uint32_t> joined_nodes;  ///< ids, in order of (re)join
  std::uint64_t recoveries = 0;             ///< node deaths survived
};

/// Two-level HCC-MF.
class HierarchicalHcc {
 public:
  explicit HierarchicalHcc(HierarchicalConfig config);

  /// Timing-only run at `shape` (paper-scale what-if).
  ClusterReport simulate(const sim::DatasetShape& shape);

  /// Functional training: real SGD on each node's slice, real Q merges at
  /// both levels.  `sgd.epochs` counts *global* epochs.
  ClusterReport train(const data::RatingMatrix& train_ratings,
                      const data::RatingMatrix* test_ratings = nullptr);

  /// Data split across nodes: DP0 over the nodes' aggregate ideal rates
  /// (a node is "one big worker" at cluster level).
  std::vector<double> node_shares(const sim::DatasetShape& shape) const;

 private:
  GlobalEpochTiming time_global_epoch(const sim::DatasetShape& shape,
                                      const std::vector<double>& shares,
                                      bool last) const;

  HierarchicalConfig config_;
};

}  // namespace hcc::cluster
