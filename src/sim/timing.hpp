// Deterministic epoch timing engine.
//
// Plays out the paper's collaborative-computing timeline (Figure 5 / 6):
// every worker runs a pull -> compute -> push pipeline — optionally chunked
// into multiple asynchronous streams (Strategy 3) — and the server's sync
// thread services push completions serially in arrival order (Eq. 3).
// Workers that time-share the server's CPU (BusKind::kLocal) lose the sync
// thread's busy time from their compute budget, reproducing the "special
// worker" behaviour of Section 3.5.
//
// The engine is what the partition strategies "measure" (Algorithm 1 re-runs
// sgd_update timings), so it supports deterministic multiplicative jitter to
// emulate run-to-run measurement noise.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/perf_model.hpp"
#include "sim/platform.hpp"

namespace hcc::sim {

/// Per-epoch, per-worker communication behaviour, produced by the COMM
/// module's strategy planner (src/comm/strategy.hpp).
struct CommPlan {
  double pull_bytes = 0.0;       ///< transmitted server -> worker
  double push_bytes = 0.0;       ///< transmitted worker -> server
  double sync_bytes = 0.0;       ///< feature bytes the server must merge
                                 ///< (FP32 volume; independent of the wire
                                 ///< encoding — FP16 halves the wire bytes,
                                 ///< not the merge work)
  double bus_efficiency = 1.0;   ///< fraction of peak bus bandwidth reached
                                 ///< (COMM ~ 1.0; COMM-P ~ 1/7; the FP16
                                 ///< cache effect can push it above 1)
  std::uint32_t streams = 1;     ///< async pipeline depth (1 = sequential)

  // Chunked-streaming extension (comm/pipeline.hpp).  With depth > 1 and
  // modeled codec rates, each direction's steady-state cost per chunk is
  // max(encode, wire, commit) — the Eq. 1 overlap term — instead of the
  // serial wire-only time.  Rates of 0 mean "unmodeled" (fp32/fp16 paths),
  // which keeps the legacy prediction bit-identical.
  std::uint32_t pipeline_depth = 1;  ///< in-flight chunk window (1 = off)
  double pull_raw_bytes = 0.0;   ///< pre-codec fp32 volume, pull direction
  double push_raw_bytes = 0.0;   ///< pre-codec fp32 volume, push direction
  double encode_gbs = 0.0;       ///< codec encode throughput over RAW bytes
  double commit_gbs = 0.0;       ///< decode+EF-commit throughput over RAW
};

/// One worker's role in the epoch.
struct WorkerPlan {
  DeviceSpec device;
  double share = 0.0;  ///< x_i — fraction of all ratings assigned
  CommPlan comm;
  /// Runtime disturbance: multiplies the device's update rate this epoch
  /// (0.7 = thermal throttling to 70%).  Used by the adaptive-repartition
  /// experiments; 1.0 = nominal.
  double rate_scale = 1.0;
};

/// Everything needed to time one epoch.
struct EpochConfig {
  DatasetShape shape;
  ServerSpec server;
  std::vector<WorkerPlan> workers;
  double jitter = 0.0;      ///< relative stddev of compute-time noise
  std::uint64_t seed = 1;   ///< jitter stream seed
};

/// Cumulative active durations and completion instants for one worker.
struct WorkerTiming {
  double pull_s = 0.0;      ///< total time spent pulling
  double compute_s = 0.0;   ///< total time spent computing
  double push_s = 0.0;      ///< total time spent pushing
  double sync_s = 0.0;      ///< server time consumed syncing this worker
  double finish_s = 0.0;    ///< instant the worker's last push completed
  double sync_end_s = 0.0;  ///< instant the server finished merging it
};

/// The timed epoch.
struct EpochTiming {
  std::vector<WorkerTiming> workers;
  double epoch_s = 0.0;        ///< Eq. 1's T: when the last sync finished
  double server_busy_s = 0.0;  ///< total serial sync time on the server
};

/// Simulates one training epoch.  Deterministic for a fixed config.
EpochTiming simulate_epoch(const EpochConfig& config);

}  // namespace hcc::sim
