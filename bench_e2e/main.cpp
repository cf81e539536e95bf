// bench_e2e: one end-to-end, layer-attributed wall-clock benchmark.
//
//   bench_e2e --workload train-tall|train-square|serve-live --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Generates the workload's inputs from the seed, drives the library through
// its public entry points, checks the outputs and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics; --trace 1 replays the run with every
// public call timed from outside and reports the per-layer metrics.  The
// line before it is a report with the input stamp, host facts, timing
// distributions and every check.  See README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <malloc.h>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/io.hpp"
#include "inputs.hpp"
#include "mf/model_io.hpp"
#include "serve.hpp"
#include "serve/engine.hpp"
#include "train.hpp"
#include "workloads.hpp"

using namespace bench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
        "[--work-dir DIR]");
  }
  return a;
}

// Everything one run reports.
struct Outcome {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  Json report;
  Json check_details;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(const std::string& name, bool ok) {
    checks.push_back({name, ok});
    if (!ok) ++failed;
  }
};

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms") || name == "trace_overhead") return "ms";
  if (ends("_us")) return "us";
  if (ends("_s") && !ends("updates_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("mupdates_s")) return "Mupdates/s";
  if (name == "core.stripe_contention" || name == "comm.retransmits") {
    return "count";
  }
  return "ratio";
}

// Held-out users with at least kProfileRatings test ratings become
// cold-start profiles of their first kProfileRatings ratings, as a new user
// would bring.  One length makes every fold_in cost the same, so the p99
// they set does not follow which profiles a seed happens to draw.
constexpr std::size_t kProfileRatings = 10;

std::vector<std::vector<serve::FoldInRating>> cold_profiles(
    const data::RatingMatrix& test, std::size_t max_profiles) {
  std::vector<std::vector<serve::FoldInRating>> by_user(test.rows());
  for (const auto& e : test.entries()) {
    if (by_user[e.u].size() < kProfileRatings) {
      by_user[e.u].push_back({e.i, e.r});
    }
  }
  std::vector<std::vector<serve::FoldInRating>> out;
  for (auto& p : by_user) {
    if (p.size() == kProfileRatings && out.size() < max_profiles) {
      out.push_back(std::move(p));
    }
  }
  if (out.size() < max_profiles) {
    throw std::runtime_error("too few held-out users for cold-start profiles");
  }
  return out;
}

struct Loaded {
  data::RatingMatrix train, test;
};

// One set-up: the repo's loaders, plus whatever the workload builds before
// its first timed unit.  Repeated; the median is setup_s.
template <typename Build>
std::vector<double> repeat_setup(int reps, const InputFiles& files,
                                 Loaded& loaded, std::vector<double>& load_s,
                                 Build&& build) {
  std::vector<double> setup;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    loaded.train = data::load_binary(files.train);
    loaded.test = data::load_binary(files.test);
    const double t1 = now_s();
    build();
    setup.push_back(now_s() - t0);
    load_s.push_back(t1 - t0);
  }
  return setup;
}

std::string json_list(const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    list += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return list + "]";
}

Json phase_json(const RatePhase& p) {
  Json j;
  j.num("rate_qps", p.rate_qps)
      .integer("attempted", static_cast<std::int64_t>(p.attempted))
      .integer("errors", static_cast<std::int64_t>(p.errors))
      .integer("refused", static_cast<std::int64_t>(p.refused))
      .integer("late", static_cast<std::int64_t>(p.late))
      .summary("latency_ms", p.latency_ms)
      .num("p99_ms", p.p99_ms)
      .num("p99_whole_phase_ms", p.p99_all_ms)
      .raw("p99_windows_ms", json_list(p.window_p99_ms))
      .num("achieved_qps", p.achieved_qps)
      .num("drain_ms", p.drain_ms)
      .boolean("ok", p.ok);
  return j;
}

// The serving half shared by every workload: recall against fp32, the
// open-loop stream, the exactness check and (traced) the scan's parts.
void serve_part(const Workload& w, const Args& args, ServeInputs& in,
                const mf::FactorModel& model, double seconds, Outcome& out,
                std::map<std::string, double>& layers) {
  ServePlan plan = w.serve;
  plan.seconds = seconds;
  const auto snapshot = in.registry->current();
  {
    auto exact = std::make_shared<serve::ModelSnapshot>();
    exact->store = serve::FactorStore(serve::StoreKind::kFp32, model.users(),
                                      model.items(), model.k(),
                                      model.p_data(), model.q_data());
    const double recall =
        recall_at_10(*snapshot, *exact, *in.seen, 300, args.seed);
    if (!args.trace) out.metric("recall_at_10", recall, "fraction");
  }
  const ServeResult r = run_serve(plan, in, args.seed, args.trace);
  std::string phases = "[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    phases += (i > 0 ? ", " : "") + phase_json(r.phases[i]).dump();
  }
  out.report.raw("serve_phases", phases + "]");
  out.report.num("latency_limit_ms", plan.limit_ms)
      .integer("writer_publishes", static_cast<std::int64_t>(r.writer_publishes));
  out.attempted += r.attempted;
  out.failed += r.errors;
  out.check("no_query_errors", r.errors == 0);
  out.check("topk_exact_vs_brute_force",
            r.exact_checked > 0 && r.exact_mismatches == 0);
  out.check_details.integer("topk_exact_checked",
                            static_cast<std::int64_t>(r.exact_checked));
  out.check_details.integer("topk_exact_mismatches",
                            static_cast<std::int64_t>(r.exact_mismatches));
  if (!args.trace) {
    const RatePhase& mid = r.phases[r.middle];
    out.metric("query_p50_ms", mid.latency_ms.median, "ms");
    out.metric("query_p99_ms", mid.p99_ms, "ms");
    out.metric("query_ok_rate_qps", r.ok_rate_qps, "1/s");
    return;
  }
  const ScanParts scan = time_scan_parts(*snapshot);
  layers["serve.queue_ms"] = median(r.queue_ms);
  layers["serve.gen_lag_ms"] = median(r.gen_lag_ms);
  layers["serve.topk_ms"] = median(r.topk_ms);
  layers["serve.foldin_ms"] = median(r.foldin_ms);
  layers["serve.decode_ms"] = scan.decode_ms;
  layers["serve.score_ms"] = scan.score_ms;
  layers["serve.heap_ms"] = scan.topk_ms - scan.decode_ms - scan.score_ms;
  layers["serve.store_mb"] =
      static_cast<double>(snapshot->store.store_bytes()) / (1024.0 * 1024.0);
  if (!r.swap_us.empty()) {
    layers["serve.swap_us"] = median(r.swap_us);
    layers["serve.encode_ms"] = median(r.encode_ms);
    layers["serve.publish_ms"] = median(r.publish_ms);
  }
  out.report.summary("serve.topk_ms", summarize(r.topk_ms))
      .summary("serve.queue_ms", summarize(r.queue_ms))
      .summary("serve.gen_lag_ms", summarize(r.gen_lag_ms))
      .summary("serve.foldin_ms", summarize(r.foldin_ms));
}

// Encodes `model` into the int8 store the workloads serve and publishes it;
// returns {encode ms, publish us}.
std::pair<double, double> publish_int8(const mf::FactorModel& model,
                                       std::uint32_t epoch,
                                       serve::SnapshotRegistry& registry) {
  const double t0 = now_s();
  auto snap = std::make_shared<serve::ModelSnapshot>();
  snap->epoch = epoch;
  snap->store = serve::FactorStore(serve::StoreKind::kInt8, model.users(),
                                   model.items(), model.k(), model.p_data(),
                                   model.q_data());
  const double t1 = now_s();
  registry.publish(std::move(snap));
  return {(t1 - t0) * 1e3, (now_s() - t1) * 1e6};
}

// The traced replay's checks and layer metrics, given the untraced runs of
// the same configuration.
void replay_part(const core::HccMfConfig& cfg, const Loaded& in,
                 const std::vector<double>& untraced_rmse,
                 double untraced_wall_s, Outcome& out,
                 std::map<std::string, double>& layers) {
  const ReplayRun rep = train_replay(cfg, in.train, in.test);
  double max_diff = 0.0;
  double rel = 0.0;
  bool same_len = rep.epoch_rmse.size() == untraced_rmse.size();
  for (std::size_t e = 0; same_len && e < rep.epoch_rmse.size(); ++e) {
    const double d = std::fabs(rep.epoch_rmse[e] - untraced_rmse[e]);
    max_diff = std::max(max_diff, d);
    rel = std::max(rel, d / std::max(1e-12, std::fabs(untraced_rmse[e])));
  }
  // kSerial is deterministic, so its replay must match bit for bit; under
  // kParallel concurrent merges land in a run-dependent order (see
  // docs/parallel_execution.md), so parity there is within 1e-3 relative.
  const bool serial = cfg.exec.mode == core::ExecMode::kSerial;
  out.check("replay_rmse_parity",
            same_len && (serial ? max_diff == 0.0 : rel <= 1e-3));
  out.check_details.num("replay_rmse_max_abs_diff", max_diff);
  for (const auto& [k, v] : rep.layers) layers[k] = v;
  layers["trace_overhead"] = (rep.wall_s - untraced_wall_s) * 1e3;

  // Additivity: train-level parts sum to the replay wall, epoch-level parts
  // to the summed epoch time; residuals may not be negative (double
  // counting) nor above 5% of their wall (unexplained time).
  auto sum_of = [&](const std::vector<std::string>& parts) {
    double s = 0.0;
    for (const auto& p : parts) s += layers[p];
    return s;
  };
  const double wall_ms = rep.wall_s * 1e3;
  const double epoch_ms = layers["core.epoch_ms"];
  const double train_sum = sum_of(rep.train_parts);
  const double epoch_sum = sum_of(rep.epoch_parts);
  const double tr = layers["train.unattributed_ms"];
  const double er = layers["core.epoch_unattributed_ms"];
  out.check("layers_sum_to_wall",
            std::fabs(train_sum - wall_ms) <= 1e-6 * wall_ms + 1e-6 &&
                std::fabs(epoch_sum - epoch_ms) <= 1e-6 * epoch_ms + 1e-6 &&
                tr >= -0.005 * wall_ms && tr <= 0.05 * wall_ms &&
                er >= -0.005 * epoch_ms && er <= 0.05 * epoch_ms);
  out.check_details.num("traced_wall_ms", wall_ms)
      .num("train_unattributed_share", tr / wall_ms)
      .num("epoch_unattributed_share", epoch_ms > 0.0 ? er / epoch_ms : 0.0)
      .num("comm_reorder_share_of_epoch",
           epoch_ms > 0.0 ? (layers["comm.pull_ms"] + layers["comm.push_ms"] +
                             layers["data.reorder_ms"]) /
                                epoch_ms
                          : 0.0);
}

void run_training_workload(const Workload& w, const Args& args,
                           const InputFiles& files, Outcome& out) {
  auto registry = std::make_shared<serve::SnapshotRegistry>();
  const core::HccMfConfig cfg = train_config(w, registry);
  Loaded in;
  std::vector<double> load_s;
  const std::vector<double> setup = repeat_setup(
      21, files, in, load_s, [&] { core::HccMf trainer(cfg); (void)trainer; });
  std::map<std::string, double> layers;
  layers["data.load_s"] = median(load_s);

  // Warm-up: first-touch page faults and lazy kernel/codec set-up.
  (void)train_untraced(cfg, in.train, in.test);

  const double budget = args.seconds * w.train_share;
  const double t_start = now_s();
  std::vector<double> walls, rmses;
  TrainRun last;
  while (walls.size() < 3 ||
         (!args.trace && now_s() - t_start < budget)) {
    last = train_untraced(cfg, in.train, in.test);
    walls.push_back(last.wall_s);
    rmses.push_back(last.epoch_rmse.back());
    ++out.attempted;
  }
  std::size_t above = 0;
  for (const double r : rmses) above += r > w.rmse_target ? 1 : 0;
  out.failed += above;
  out.check("final_rmse_at_or_below_target", above == 0);
  out.report.summary("train_s", summarize(walls))
      .raw("train_walls_s", json_list(walls))
      .summary("setup_s", summarize(setup))
      .num("rmse_target", w.rmse_target)
      .num("final_rmse_max", *std::max_element(rmses.begin(), rmses.end()));

  if (args.trace) {
    replay_part(cfg, in, last.epoch_rmse, median(walls), out, layers);
    // The same replay under kSerial (2 epochs) must match bit for bit.
    core::HccMfConfig serial =
        train_config(w, std::make_shared<serve::SnapshotRegistry>());
    serial.exec.mode = core::ExecMode::kSerial;
    serial.sgd.epochs = 2;
    const TrainRun ref = train_untraced(serial, in.train, in.test);
    const ReplayRun rep = train_replay(serial, in.train, in.test);
    out.check("serial_replay_bit_identical", rep.epoch_rmse == ref.epoch_rmse);
  } else {
    out.metric("setup_s", median(setup), "s");
    out.metric("train_s", median(walls), "s");
    out.metric("final_rmse", median(rmses), "rmse");
  }

  // Serving the delivered model: encode it into the int8 store and publish.
  const mf::SeenIndex seen(in.train);
  std::vector<double> enc_ms, swap_us;
  for (int rep = 0; rep < 3; ++rep) {
    const auto [e, s] = publish_int8(last.model, 0, *registry);
    enc_ms.push_back(e);
    swap_us.push_back(s);
  }
  ServeInputs sin;
  sin.registry = registry;
  sin.seen = &seen;
  sin.users = last.model.users();
  sin.cold_profiles = cold_profiles(in.test, 256);
  sin.models = {&last.model};
  serve_part(w, args, sin, last.model, args.seconds * (1.0 - w.train_share),
             out, layers);
  if (args.trace) {
    layers["serve.encode_ms"] = median(enc_ms);
    layers["serve.swap_us"] = median(swap_us);
    for (const auto& [k, v] : layers) out.metric(k, v, unit_of(k));
  }
}

void run_serve_live(const Workload& w, const Args& args,
                    const InputFiles& files, const Generated& gen,
                    Outcome& out) {
  Loaded in;
  std::vector<double> load_s;
  mf::FactorModel a, b;
  std::shared_ptr<serve::SnapshotRegistry> registry;
  std::unique_ptr<mf::SeenIndex> seen;
  std::vector<std::vector<serve::FoldInRating>> profiles;
  std::vector<double> model_load_s;
  const std::vector<double> setup = repeat_setup(9, files, in, load_s, [&] {
    const double t0 = now_s();
    a = mf::load_model(files.model_a);
    b = mf::load_model(files.model_b);
    model_load_s.push_back(now_s() - t0);
    seen = std::make_unique<mf::SeenIndex>(in.train);
    profiles = cold_profiles(in.test, 256);
    registry = std::make_shared<serve::SnapshotRegistry>();
    (void)publish_int8(b, 1, *registry);  // epoch 1 names b below
    // Warm-up: a few scans fault in the store and the engine's scratch.
    serve::TopKEngine engine({.block_items = 256, .record_metrics = false});
    const auto snap = registry->current();
    for (std::uint32_t u = 0; u < 16; ++u) {
      (void)engine.top_k(*snap, u, kTopN, seen.get());
    }
  });
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < load_s.size(); ++i) load_s[i] += model_load_s[i];
  layers["data.load_s"] = median(load_s);

  // The catalog's training ran while generating the inputs (kSerial, five
  // identical runs): its wall is train_s, its quality final_rmse.
  const double final_rmse = gen.catalog_epoch_rmse.back();
  out.attempted += gen.catalog_train_s.size();
  const bool on_target = final_rmse <= w.rmse_target;
  out.failed += on_target ? 0 : 1;
  out.check("final_rmse_at_or_below_target", on_target);
  out.check("catalog_training_deterministic", gen.catalog_deterministic);
  out.report.summary("train_s", summarize(gen.catalog_train_s))
      .raw("train_walls_s", json_list(gen.catalog_train_s))
      .summary("setup_s", summarize(setup))
      .num("rmse_target", w.rmse_target);
  if (args.trace) {
    core::HccMfConfig cfg = train_config(w, nullptr);
    cfg.exec.mode = core::ExecMode::kSerial;
    replay_part(cfg, in, gen.catalog_epoch_rmse, median(gen.catalog_train_s),
                out, layers);
  } else {
    out.metric("setup_s", median(setup), "s");
    out.metric("train_s", median(gen.catalog_train_s), "s");
    out.metric("final_rmse", final_rmse, "rmse");
  }

  ServeInputs sin;
  sin.registry = registry;
  sin.seen = seen.get();
  sin.users = b.users();
  sin.cold_profiles = std::move(profiles);
  sin.models = {&a, &b};
  serve_part(w, args, sin, b, args.seconds, out, layers);
  if (args.trace) {
    for (const auto& [k, v] : layers) out.metric(k, v, unit_of(k));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold.  glibc's default raises the threshold after each
  // large free, so freed multi-MB buffers then stay in the heap, and peak
  // RSS varied by up to 40% with allocation order and thread timing.  Fixed,
  // large buffers go back to the OS when freed: peak_rss_mb tracks live
  // memory, and each train() call first-touches its buffers as a fresh
  // process would.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = workload_by_name(args.workload);
    Outcome out;
    out.report.str("workload", w.name)
        .integer("seed", static_cast<std::int64_t>(args.seed))
        .num("seconds", args.seconds)
        .integer("trace", args.trace ? 1 : 0)
        .obj("host", host_facts());
    const std::string dir =
        args.work_dir + "/" + w.name + "-" + std::to_string(args.seed);
    const Generated gen = generate_inputs(w, args.seed, dir);
    out.report.obj("inputs", gen.stamp);
    const InputFiles files = input_files(dir);
    if (w.train_share > 0.0) {
      run_training_workload(w, args, files, out);
    } else {
      run_serve_live(w, args, files, gen, out);
    }
    const double rss = peak_rss_mb();
    if (!args.trace) out.metric("peak_rss_mb", rss, "MB");

    bool correct = true;
    Json checks;
    for (const auto& [name, ok] : out.checks) {
      checks.boolean(name, ok);
      correct = correct && ok;
    }
    out.report.obj("checks", checks).obj("check_details", out.check_details);
    out.report.str("clock", "host wall-clock (steady_clock); no virtual time");
    std::printf("%s\n", Json().obj("report", out.report).dump().c_str());

    Json metrics;
    for (const auto& [name, vu] : out.metrics) {
      metrics.obj(name, Json().num("value", vu.first).str("unit", vu.second));
    }
    Json result;
    result.boolean("correct", correct)
        .integer("attempted", static_cast<std::int64_t>(std::max<std::size_t>(1, out.attempted)))
        .integer("failed", static_cast<std::int64_t>(out.failed))
        .obj("metrics", metrics);
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
