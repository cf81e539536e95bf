// The three workloads: their generated inputs, trainer configuration,
// quality targets and the frozen serving rates.  See README.md for why
// each exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"

namespace bench {

/// Every query asks for a top-10 list.
inline constexpr std::size_t kTopN = 10;
/// Query threads.  One: a lone spinning thread keeps a steady speed on a
/// shared 4-vCPU host, while two spinning readers competed for the same
/// physical core whenever the host packed the vCPUs onto fewer cores.
inline constexpr std::uint32_t kReaders = 1;
/// Every workload trains k=128 factors for 8 epochs, which reaches each
/// workload's RMSE target.
inline constexpr std::uint32_t kLatentDim = 128;
inline constexpr std::uint32_t kEpochs = 8;

struct ServePlan {
  std::vector<double> rates_qps;  ///< fixed open-loop rates, ascending
  double seconds = 1.0;  ///< all rates together (set per run); the middle
                         ///< rate runs six times as long as each other one
  double limit_ms = 50.0;         ///< p99 latency limit
  double writer_period_s = 0.0;   ///< republish period (0: no writer)
};

struct Workload {
  std::string name;
  data::DatasetSpec spec;      ///< generated rating shape (m, n, nnz)
  double rmse_target = 0.0;    ///< final_rmse must be at or below this
  bool tiled = false;          ///< schedule tiled (else asis)
  bool int8_sim_link = false;  ///< int8 codec, depth-4 pipeline, 10GbE session
  bool publish = false;        ///< publish_every=1 to an int8 store
  /// Share of --seconds spent in repeated training (the rest serves).
  double train_share = 0.3;
  ServePlan serve;
};

/// The workload by name; throws std::invalid_argument for unknown names.
Workload workload_by_name(const std::string& name);

/// The trainer configuration a user would write for this workload.
/// `registry` receives snapshots when the workload publishes.
core::HccMfConfig train_config(
    const Workload& w, std::shared_ptr<serve::SnapshotRegistry> registry);

}  // namespace bench
