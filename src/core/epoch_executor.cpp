#include "core/epoch_executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/server.hpp"
#include "core/steal_queue.hpp"
#include "core/worker.hpp"
#include "fault/errors.hpp"
#include "obs/metrics.hpp"
#include "util/affinity.hpp"

namespace hcc::core {

namespace {

/// Barrier rethrow priority: a dead worker outranks a diverged one outranks
/// anything else, so concurrent failures resolve to the same recovery path
/// regardless of thread timing.
int error_rank(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const fault::WorkerFault&) {
    return 0;
  } catch (const fault::DivergenceError&) {
    return 1;
  } catch (...) {
    return 2;
  }
}

/// Runs fn(index) when worker `index` is alive (a null mask means all) and
/// returns what it threw, so one failure never stops the other workers.
std::exception_ptr run_one(std::size_t index, const std::vector<bool>* alive,
                           const std::function<void(std::size_t)>* fn) {
  const bool live =
      alive == nullptr || index >= alive->size() || (*alive)[index];
  if (!live || fn == nullptr) return nullptr;
  try {
    (*fn)(index);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

const char* exec_mode_name(ExecMode mode) {
  return mode == ExecMode::kParallel ? "parallel" : "serial";
}

ExecMode parse_exec_mode(const std::string& name) {
  if (name == "serial") return ExecMode::kSerial;
  if (name == "parallel") return ExecMode::kParallel;
  throw std::invalid_argument("unknown exec mode: \"" + name +
                              "\" (expected serial|parallel)");
}

std::uint32_t resolve_stripes(const ExecOptions& opts, std::uint32_t items,
                              std::size_t workers) {
  if (opts.mode == ExecMode::kSerial) return 1;
  const std::uint32_t want =
      opts.stripes > 0
          ? opts.stripes
          : 8 * static_cast<std::uint32_t>(std::max<std::size_t>(1, workers));
  return std::clamp(want, 1u, std::max(1u, items));
}

EpochExecutor::EpochExecutor(const ExecOptions& options, std::size_t n_workers)
    : options_(options), n_(n_workers), errors_(n_workers) {}

EpochExecutor::~EpochExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void EpochExecutor::start_threads() {
  if (!threads_.empty() || n_ == 0) return;
  threads_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    threads_.emplace_back([this, i] { thread_loop(i); });
  }
}

void EpochExecutor::thread_loop(std::size_t index) {
  if (options_.pin_threads &&
      util::pin_current_thread(static_cast<unsigned>(index))) {
    // Pin before the first barrier: every buffer the worker lazily sizes
    // (ensure_buffers at its first pull) is then first-touched — hence
    // NUMA-placed — on the CPU it will run on for the whole training.
    obs::registry().counter("sched.pinned_threads").add(1);
  }
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    const std::vector<bool>* alive = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock,
                    [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      fn = fn_;
      alive = alive_;
    }
    std::exception_ptr error = run_one(index, alive, fn);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Move, don't copy: the local must not keep a reference past the
      // lock, or its destructor could do the exception object's *final*
      // release unsynchronized with the main thread still examining it.
      errors_[index] = std::move(error);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void EpochExecutor::run_parallel(const std::vector<bool>& alive,
                                 const std::function<void(std::size_t)>& fn) {
  if (n_ == 0) return;
  if (options_.mode == ExecMode::kSerial) {
    // The same barrier contract on the calling thread: every alive worker
    // runs, in id order, and the winner is rethrown afterwards.
    for (std::size_t i = 0; i < n_; ++i) errors_[i] = run_one(i, &alive, &fn);
    rethrow_barrier_error();
    return;
  }
  start_threads();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    alive_ = &alive;
    fn_ = &fn;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr());
    pending_ = n_;
    ++generation_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    alive_ = nullptr;
    fn_ = nullptr;
  }
  rethrow_barrier_error();
}

void EpochExecutor::rethrow_barrier_error() {
  // errors_ is only touched by parked threads between barriers, so reading
  // it without the lock here (pending_ == 0 established the happens-before)
  // is fine — but take the lock anyway; this path is cold.
  std::exception_ptr winner;
  int winner_rank = 3;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ep : errors_) {
      if (!ep) continue;
      const int rank = error_rank(ep);
      if (rank < winner_rank) {
        winner_rank = rank;
        winner = ep;
      }
    }
  }
  if (winner) std::rethrow_exception(winner);
}

void EpochExecutor::run_epoch(std::vector<TrainWorker>& workers,
                              const std::vector<bool>& alive, Server& server,
                              float lr, float reg_p, float reg_q,
                              util::ThreadPool* pool) {
  // Stealing needs peers draining their queues concurrently, so it is a
  // kParallel-only schedule; every other epoch is each alive worker's whole
  // pipeline, on its own thread or (kSerial) inline in worker-id order.
  if (!options_.steal || options_.mode == ExecMode::kSerial) {
    run_parallel(alive, [&](std::size_t i) {
      // The reorder runs on the worker's own (possibly pinned) thread so
      // the permuted entries are first-touched where they will be streamed.
      workers[i].prepare_epoch();
      workers[i].run_pipeline(server, lr, reg_p, reg_q, pool);
    });
    return;
  }

  // Work-stealing epoch: one shared chunk scheduler per epoch.  Chunk
  // targets come from the previous epoch's effective-bandwidth gauges — a
  // measured straggler gets smaller chunks, so more of its backlog is
  // stealable and its unstealable last chunk is short.
  std::size_t n_alive = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i < alive.size() && alive[i]) ++n_alive;
  }
  StealScheduler sched(workers.size(), n_alive);
  auto& reg = obs::registry();
  std::vector<double> gbps(workers.size(), 0.0);
  double gbps_sum = 0.0;
  std::size_t gbps_n = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!alive[i]) continue;
    const obs::Gauge* g =
        reg.find_gauge("worker" + std::to_string(i) + ".effective_gbps");
    if (g != nullptr && g->value() > 0.0) {
      gbps[i] = g->value();
      gbps_sum += gbps[i];
      ++gbps_n;
    }
  }
  const double gbps_mean =
      gbps_n > 0 ? gbps_sum / static_cast<double>(gbps_n) : 0.0;
  std::vector<std::size_t> targets(workers.size(), 0);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!alive[i]) continue;
    targets[i] = resolve_chunk_target(workers[i].assigned_nnz(),
                                      options_.chunk_ratings, gbps[i],
                                      gbps_mean);
  }

  run_parallel(alive, [&](std::size_t i) {
    try {
      workers[i].prepare_epoch();
      workers[i].pull(server);
      // Chunks are published only after the pull: stealing runs against a
      // consistent epoch-start view, and next_chunk's registration wait
      // keeps anyone from draining a queue before the real backlogs exist.
      sched.install(i, workers[i].make_chunks(targets[i]));
      WorkChunk chunk;
      while (sched.next_chunk(i, chunk)) {
        try {
          if (chunk.owner == static_cast<std::uint32_t>(i)) {
            workers[i].compute_own_range(server, chunk.lo, chunk.hi, lr,
                                         reg_p, reg_q, pool);
          } else {
            workers[i].compute_stolen(server, workers[chunk.owner], chunk.lo,
                                      chunk.hi, lr, reg_p, reg_q);
          }
        } catch (...) {
          // Release the row claim before aborting, or a peer parked on it
          // would never re-check the abort flag.
          sched.complete(chunk);
          throw;
        }
        sched.complete(chunk);
      }
      workers[i].guard_divergence();
      workers[i].push(server);
    } catch (...) {
      // Wake everyone (registration wait, claim wait) so the epoch barrier
      // is reached; peers push whatever they finished, and the recovery
      // paths roll the partial epoch back from the checkpoint exactly as
      // in the non-stealing executor.
      sched.abort();
      throw;
    }
  });
}

}  // namespace hcc::core
