// Training side of the benchmark: the untraced HccMf::train call a user
// makes, and the traced replay that rebuilds the same run from public
// calls and times each one from outside.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hccmf.hpp"

namespace bench {

struct TrainRun {
  double wall_s = 0.0;              ///< HccMf::train wall time
  std::vector<double> epoch_rmse;   ///< the report's per-epoch test RMSE
  mf::FactorModel model;            ///< the delivered model
};

/// One untraced HccMf::train call.
TrainRun train_untraced(const core::HccMfConfig& config,
                        const data::RatingMatrix& train,
                        const data::RatingMatrix& test);

struct ReplayRun {
  double wall_s = 0.0;              ///< whole replay, outside-timed
  std::vector<double> epoch_rmse;   ///< must equal train()'s
  std::map<std::string, double> layers;  ///< per-layer metrics by name
  /// The parts that must add up to wall_s (train level) and to the
  /// summed epoch time (epoch level); the residuals are among them.
  std::vector<std::string> train_parts;
  std::vector<std::string> epoch_parts;
};

/// Rebuilds HccMf::train for `config` in the same order from public calls,
/// timing each.  Supports the configurations the workloads use: a row-grid
/// matrix (rows >= cols), no fault plan, no adaptive repartitioning, no
/// host thread pool, and either exec mode without stealing.
ReplayRun train_replay(const core::HccMfConfig& config,
                       const data::RatingMatrix& train,
                       const data::RatingMatrix& test);

}  // namespace bench
