// Seeded input generation.  The benchmark derives every input from
// --seed and writes it under the run's work directory; the program under
// test only ever sees the files, through its own loaders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace bench {

struct InputFiles {
  std::string train;    ///< data::save_binary ratings
  std::string test;
  std::string model_a;  ///< serve-live: catalog after epochs-1 epochs
  std::string model_b;  ///< serve-live: catalog after all epochs
};

InputFiles input_files(const std::string& dir);

struct Generated {
  Json stamp;  ///< seed, shape (m, n, nnz, k) and ratings checksum
  /// serve-live only: the catalog model's untraced HccMf::train walls and
  /// its per-epoch test RMSE (the training is part of input generation).
  std::vector<double> catalog_train_s;
  std::vector<double> catalog_epoch_rmse;
  bool catalog_deterministic = true;  ///< every catalog run matched exactly
};

/// Generates the workload's inputs for `seed` into `dir` (created if
/// missing).  The same seed always writes byte-identical rating files.
Generated generate_inputs(const Workload& w, std::uint64_t seed,
                          const std::string& dir);

}  // namespace bench
