#include "inputs.hpp"

#include <filesystem>
#include <stdexcept>

#include "data/io.hpp"
#include "mf/model_io.hpp"
#include "train.hpp"
#include "util/rng.hpp"

namespace bench {

InputFiles input_files(const std::string& dir) {
  return {dir + "/train.bin", dir + "/test.bin", dir + "/catalog_a.hcmf",
          dir + "/catalog_b.hcmf"};
}

Generated generate_inputs(const Workload& w, std::uint64_t seed,
                          const std::string& dir) {
  std::filesystem::create_directories(dir);
  const InputFiles files = input_files(dir);
  data::GeneratorConfig gen;
  gen.seed = seed;
  const data::RatingMatrix full = data::generate(w.spec, gen);
  hcc::util::Rng split_rng(seed ^ 0x5eedULL);
  auto [train, test] = data::train_test_split(full, 0.1, split_rng);
  if (!data::save_binary(train, files.train) ||
      !data::save_binary(test, files.test)) {
    throw std::runtime_error("cannot write inputs under " + dir);
  }
  Generated g;
  g.stamp.integer("seed", static_cast<std::int64_t>(seed))
      .integer("m", train.rows())
      .integer("n", train.cols())
      .integer("nnz_train", static_cast<std::int64_t>(train.nnz()))
      .integer("nnz_test", static_cast<std::int64_t>(test.nnz()))
      .integer("k", kLatentDim)
      .str("ratings_fnv1a",
           std::to_string(ratings_checksum(test, ratings_checksum(train))));

  if (w.name == "serve-live") {
    // The catalog: the same trainer, run under kSerial so the factors (not
    // only the ratings) are identical for a given seed.  Two epochs'
    // factors give the writer thread two snapshots to alternate between.
    core::HccMfConfig cfg = train_config(w, nullptr);
    cfg.exec.mode = core::ExecMode::kSerial;
    cfg.sgd.epochs = kEpochs - 1;
    const TrainRun a = train_untraced(cfg, train, test);
    cfg.sgd.epochs = kEpochs;
    TrainRun b;
    for (int rep = 0; rep < 5; ++rep) {
      b = train_untraced(cfg, train, test);
      g.catalog_train_s.push_back(b.wall_s);
      g.catalog_deterministic =
          g.catalog_deterministic &&
          (g.catalog_epoch_rmse.empty() || b.epoch_rmse == g.catalog_epoch_rmse);
      g.catalog_epoch_rmse = b.epoch_rmse;
    }
    if (!mf::save_model(a.model, files.model_a) ||
        !mf::save_model(b.model, files.model_b)) {
      throw std::runtime_error("cannot write catalog models under " + dir);
    }
  }
  return g;
}

}  // namespace bench
