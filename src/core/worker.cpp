#include "core/worker.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "fault/errors.hpp"
#include "mf/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {
// Workers occupy Chrome-trace tracks 1..N; track 0 is the server.
std::uint32_t track_of(std::uint32_t worker_id) { return worker_id + 1; }
}  // namespace

TrainWorker::TrainWorker(std::uint32_t id, std::string device_name,
                         data::RatingMatrix slice,
                         const comm::CommConfig& config, std::uint32_t streams)
    : id_(id),
      device_name_(std::move(device_name)),
      slice_(std::move(slice)),
      streams_(std::max(1u, streams)),
      sparse_(config.sparse),
      backend_(comm::make_backend(config, id)),
      comm_config_(config) {
  if (sparse_) {
    rebuild_touched();
  }
  const std::string base = "worker" + std::to_string(id_) + ".";
  auto& reg = obs::registry();
  hist_pull_ = &reg.histogram(base + "pull_s");
  hist_compute_ = &reg.histogram(base + "compute_s");
  hist_push_ = &reg.histogram(base + "push_s");
  hist_sync_ = &reg.histogram(base + "sync_s");
  counter_updates_ = &reg.counter("simd.sgd_updates");
  obs::trace().set_track_name(track_of(id_),
                              "worker " + std::to_string(id_) + " (" +
                                  device_name_ + ")");
}

TrainWorker::~TrainWorker() {
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
}

void TrainWorker::set_exec(bool parallel, bool double_buffer) {
  parallel_ = parallel;
  // Double-buffering only pays (and is only exercised) with a pipeline to
  // overlap; the buffers themselves are sized lazily at the next pull.
  double_buffer_ = parallel && double_buffer && streams_ >= 2;
}

void TrainWorker::set_schedule(const data::ScheduleOptions& options,
                               std::uint32_t k) {
  data::ScheduleOptions mixed = options;
  // Decorrelate workers: identical base seeds must not make every worker
  // visit its tiles in the same global order (that would re-synchronize
  // the server merge traffic the schedule is trying to spread out).
  mixed.seed ^= 0x9e3779b97f4a7c15ULL * (std::uint64_t(id_) + 1);
  scheduler_ = data::RatingScheduler(mixed, k);
  sched_epoch_ = 0;
  sched_stats_ = {};
}

void TrainWorker::prepare_epoch() {
  const std::uint32_t epoch = sched_epoch_++;
  if (scheduler_.options().policy == data::SchedulePolicy::kAsIs) {
    return;  // bit-identical contract: never touch the slice
  }
  obs::ScopedSpan span("schedule", obs::kPhaseCategory, track_of(id_));
  span.arg("epoch", std::to_string(epoch));
  sched_stats_ = scheduler_.prepare(slice_, epoch);
}

void TrainWorker::set_fault_runtime(fault::FaultRuntime* runtime) {
  fault_ = runtime;
  if (runtime != nullptr && runtime->active()) {
    backend_->set_checksum_enabled(true);
    backend_->set_wire_tap([runtime, worker = id_](std::span<std::byte> wire) {
      runtime->injector().tap_wire(wire, worker);
    });
  }
}

void TrainWorker::rebuild_touched() {
  touched_.clear();
  const auto counts = slice_.col_counts();
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) touched_.push_back(i);
  }
}

void TrainWorker::absorb_entries(const std::vector<data::Rating>& entries) {
  if (entries.empty()) return;
  // One bulk append (a single reserve + memcpy-ish insert), then one index
  // rebuild — not O(entries) incremental add() calls.
  slice_.append(entries);
  if (sparse_) rebuild_touched();
  // A repartition reshuffles what each packed slot means (and under sparse
  // push, the packed length): the delta coders' references are stale, so
  // force the next transfer per direction to re-keyframe.
  if (pull_pipe_ != nullptr) pull_pipe_->reset_state();
  if (push_pipe_ != nullptr) push_pipe_->reset_state();
}

void TrainWorker::record_phase(double seconds, double obs::PhaseTimes::*field,
                               obs::Histogram* hist) {
  // A real stall already spent its factor in wall clock (apply_real_stall
  // slept inside the span); multiplying again would double-charge it.
  const double s = seconds * (real_stalls_ ? 1.0 : stall_factor_);
  measured_.*field += s;
  hist->observe(s);
}

void TrainWorker::apply_real_stall(double elapsed_s) const {
  if (!real_stalls_ || stall_factor_ <= 1.0 || elapsed_s <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>((stall_factor_ - 1.0) * elapsed_s));
}

comm::StreamPipeline::RetryFn TrainWorker::retry_policy() {
  return [this](const std::function<void()>& attempt) {
    std::uint32_t tries = 0;
    for (;;) {
      try {
        attempt();
        return;
      } catch (const comm::ChecksumError&) {
        if (fault_ == nullptr) throw;
        fault_->count_checksum_failure();
        if (tries >= fault_->options().max_retries) {
          throw fault::TransferFailure(id_, tries + 1, backend_->name());
        }
        // The attempt re-sends pristine bytes (a depth-1 transfer even
        // re-encodes from `src`), so a retry is idempotent.
        fault_->count_retry();
        const double backoff = fault_->options().backoff_base_s *
                               static_cast<double>(1u << tries);
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
        ++tries;
      }
    }
  };
}

void TrainWorker::gather_touched(std::span<const float> q,
                                 std::vector<float>& packed,
                                 std::uint32_t k) const {
  assert(packed.size() == touched_.size() * std::size_t(k));
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    const float* src = &q[std::size_t(touched_[t]) * k];
    std::copy(src, src + k, &packed[t * k]);
  }
}

void TrainWorker::scatter_touched(const std::vector<float>& packed,
                                  std::span<float> q,
                                  std::uint32_t k) const {
  assert(packed.size() == touched_.size() * std::size_t(k));
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    const float* src = &packed[t * k];
    std::copy(src, src + k, &q[std::size_t(touched_[t]) * k]);
  }
}

void TrainWorker::ensure_buffers(Server& server) {
  const std::size_t q_size = server.model().q_data().size();
  const std::uint32_t k = server.model().k();
  if (pull_pipe_ == nullptr) {
    // Built here, not in the constructor: the quantized codecs want the
    // rank for their per-row scale blocks, and k lives on the server.
    // Sparse pushes carry their row indices in-band when the codec is a
    // stateful quantizer (SparseIndexedCodec), making the packed wire
    // self-describing; fp32/fp16 sparse wire stays bit-identical.
    pull_pipe_ = std::make_unique<comm::StreamPipeline>(
        comm_config_, k, comm::StreamPipeline::Direction::kPull);
    push_pipe_ = std::make_unique<comm::StreamPipeline>(
        comm_config_, k, comm::StreamPipeline::Direction::kPush, sparse_);
  }
  if (local_q_.size() != q_size) {
    local_q_.assign(q_size, 0.0f);
    snapshot_q_.assign(q_size, 0.0f);
    push_staging_.assign(q_size, 0.0f);
  }
  if (sparse_) {
    // Sized once from the touched set (re-sized only after absorb_entries
    // grows it); the gather/scatter hot paths assert instead of resizing.
    const std::size_t packed = touched_.size() * k;
    if (packed_send_.size() != packed) {
      packed_send_.resize(packed);
      packed_recv_.resize(packed);
    }
  } else if (parallel_ && pull_staging_.size() != q_size) {
    pull_staging_.resize(q_size);
  }
  if (double_buffer_ && local_q_back_.size() != q_size) {
    local_q_back_.assign(q_size, 0.0f);
    snapshot_q_back_.assign(q_size, 0.0f);
  }
}

void TrainWorker::pull_into(Server& server, util::AlignedFloats& q_dst,
                            std::vector<float>& snap_dst) {
  const std::uint32_t k = server.model().k();
  const comm::StreamPipeline::RetryFn retry = retry_policy();
  if (sparse_) {
    // Strategy 4: only the touched Q rows cross the wire, read under the
    // stripe locks (safe against concurrent merges).
    server.gather_q_rows(touched_, packed_send_);
    pull_pipe_->transfer(*backend_, packed_send_, packed_recv_, retry);
    scatter_touched(packed_recv_, q_dst, k);
    // The snapshot is what this worker *received* (post-codec), so the
    // later delta merge cancels the pull's quantization exactly.  The
    // untouched rows copy local (stale) values: their delta is then exactly
    // zero, so they neither travel nor merge.
    std::copy(q_dst.begin(), q_dst.end(), snap_dst.begin());
    return;
  }
  // Dense pulls snapshot per chunk as each lands — under a depth > 1
  // pipeline the copy of chunk i overlaps the wire of chunk i+1.
  const comm::StreamPipeline::ChunkHook snapshot_chunk =
      [&](std::size_t lo, std::size_t hi) {
        std::copy(q_dst.begin() + lo, q_dst.begin() + hi,
                  snap_dst.begin() + lo);
      };
  if (parallel_) {
    // Concurrent execution: other workers may be merging right now, so the
    // global read goes through the server's stripe locks.  Serially no
    // merge can overlap, and reading Q in place saves the staging copy.
    server.read_q(pull_staging_);
    pull_pipe_->transfer(*backend_, pull_staging_, q_dst, retry,
                         snapshot_chunk);
  } else {
    pull_pipe_->transfer(*backend_, server.model().q_data(), q_dst, retry,
                         snapshot_chunk);
  }
}

void TrainWorker::pull(Server& server) {
  if (fault_ != nullptr) {
    fault_->injector().check_phase(id_);
    // Epoch-addressed transport faults (chaos link) follow the injector's
    // cursor; a no-op for the in-process backends.
    backend_->begin_epoch(fault_->injector().current_epoch());
  }
  obs::ScopedSpan span("pull", obs::kPhaseCategory, track_of(id_));
  ensure_buffers(server);
  pull_into(server, local_q_, snapshot_q_);
  record_phase(span.stop(), &obs::PhaseTimes::pull_s, hist_pull_);
}

void TrainWorker::start_prefetch(Server& server) {
  assert(!prefetch_thread_.joinable());
  prefetch_error_ = nullptr;
  prefetch_thread_ = std::thread([this, &server] {
    try {
      if (fault_ != nullptr) fault_->injector().check_phase(id_);
      obs::ScopedSpan span("pull (prefetch)", obs::kPhaseCategory,
                           track_of(id_));
      pull_into(server, local_q_back_, snapshot_q_back_);
      record_phase(span.stop(), &obs::PhaseTimes::pull_s, hist_pull_);
    } catch (...) {
      prefetch_error_ = std::current_exception();
    }
  });
}

void TrainWorker::join_prefetch() {
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
  if (prefetch_error_) {
    std::exception_ptr error = prefetch_error_;
    prefetch_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void TrainWorker::swap_buffers() {
  local_q_.swap(local_q_back_);
  snapshot_q_.swap(snapshot_q_back_);
}

void TrainWorker::fold_own_delta(std::uint32_t k) {
  auto fold_row = [&](std::uint32_t item, float w) {
    if (w == 0.0f) return;
    const std::size_t base = std::size_t(item) * k;
    for (std::uint32_t f = 0; f < k; ++f) {
      const float d = w * (push_staging_[base + f] - snapshot_q_[base + f]);
      local_q_back_[base + f] += d;
      snapshot_q_back_[base + f] += d;
    }
  };
  if (sparse_) {
    // Only touched rows can carry a non-zero delta.
    for (const std::uint32_t item : touched_) {
      fold_row(item, item_weights_.empty() ? 1.0f : item_weights_[item]);
    }
  } else {
    const std::uint32_t items =
        static_cast<std::uint32_t>(push_staging_.size() / k);
    for (std::uint32_t item = 0; item < items; ++item) {
      fold_row(item, item_weights_.empty() ? 1.0f : item_weights_[item]);
    }
  }
}

void TrainWorker::compute_chunk(Server& server, std::uint32_t chunk, float lr,
                                float reg_p, float reg_q,
                                util::ThreadPool* pool) {
  assert(chunk < streams_);
  assert(!local_q_.empty() && "pull() must precede compute_chunk()");
  if (fault_ != nullptr) fault_->injector().check_phase(id_);
  obs::ScopedSpan span("compute", obs::kPhaseCategory, track_of(id_));
  span.arg("chunk", std::to_string(chunk));
  util::Stopwatch watch;
  const auto entries = slice_.entries();
  const std::size_t per_chunk = (entries.size() + streams_ - 1) / streams_;
  const std::size_t lo = std::min(entries.size(), chunk * per_chunk);
  const std::size_t hi = std::min(entries.size(), lo + per_chunk);
  for (std::uint32_t pass = 0; pass < local_passes_; ++pass) {
    sgd_over_own(server, entries, lo, hi, lr, reg_p, reg_q, pool);
  }
  counter_updates_->add((hi - lo) * local_passes_);
  computed_ += (hi - lo) * local_passes_;
  last_chunk_ = chunk;
  apply_real_stall(watch.seconds());
  record_phase(span.stop(), &obs::PhaseTimes::compute_s, hist_compute_);

  // Divergence guard: a runaway learning rate poisons whole Q rows within
  // one chunk; catch it here, before push spreads it to the server.
  guard_divergence();
}

void TrainWorker::sgd_over_own(Server& server,
                               std::span<const data::Rating> entries,
                               std::size_t lo, std::size_t hi, float lr,
                               float reg_p, float reg_q,
                               util::ThreadPool* pool) {
  mf::FactorModel& model = server.model();
  const std::uint32_t k = model.k();
  // Hint a few updates ahead: far enough that the lines arrive before the
  // demand load, near enough that they are not evicted again first.
  constexpr std::size_t kPrefetchAhead = 4;
  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      if (idx + kPrefetchAhead < end) {
        const auto& f = entries[idx + kPrefetchAhead];
        mf::sgd_prefetch_rows(model.p(f.u), &local_q_[std::size_t(f.i) * k],
                              k);
      }
      const auto& e = entries[idx];
      // P row: exclusive to this worker (row grid) -> global in place.
      // Q row: private local copy, merged at push.
      mf::sgd_update_dispatch(model.p(e.u), &local_q_[std::size_t(e.i) * k],
                              k, e.r, lr, reg_p, reg_q);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(lo, hi, body);
  } else {
    body(lo, hi);
  }
}

void TrainWorker::guard_divergence(std::span<const float> q) const {
  if (fault_ != nullptr && fault_->options().divergence_guard &&
      !mf::all_finite(q)) {
    util::log_kv(util::LogLevel::kWarn, "fault.divergence",
                 {util::kv("worker", id_),
                  util::kv("epoch", fault_->injector().current_epoch())});
    throw fault::DivergenceError(id_, fault_->injector().current_epoch());
  }
}

std::vector<WorkChunk> TrainWorker::make_chunks(
    std::size_t target_ratings) const {
  // Tile-aligned under the tiled schedule (never split a tile's working
  // set); user-row-aligned otherwise, which keeps the chunks' P-row claim
  // intervals disjoint over the row-sorted default order.
  std::span<const std::uint32_t> cuts;
  if (scheduler_.options().policy == data::SchedulePolicy::kTiled) {
    cuts = sched_stats_.tile_offsets;
  }
  return build_chunks(slice_.entries(), id_, target_ratings, cuts);
}

void TrainWorker::compute_own_range(Server& server, std::size_t lo,
                                    std::size_t hi, float lr, float reg_p,
                                    float reg_q, util::ThreadPool* pool) {
  assert(!local_q_.empty() && "pull() must precede compute_own_range()");
  if (fault_ != nullptr) fault_->injector().check_phase(id_);
  obs::ScopedSpan span("compute", obs::kPhaseCategory, track_of(id_));
  util::Stopwatch watch;
  sgd_over_own(server, slice_.entries(), lo, hi, lr, reg_p, reg_q, pool);
  counter_updates_->add(hi - lo);
  computed_ += hi - lo;
  // The divergence guard runs once before push (guard_divergence), not per
  // chunk — an O(|Q|) scan per chunk would dwarf small chunks.
  apply_real_stall(watch.seconds());
  record_phase(span.stop(), &obs::PhaseTimes::compute_s, hist_compute_);
}

void TrainWorker::compute_stolen(Server& server, const TrainWorker& victim,
                                 std::size_t lo, std::size_t hi, float lr,
                                 float reg_p, float reg_q) {
  if (fault_ != nullptr) fault_->injector().check_phase(id_);
  obs::ScopedSpan span("steal", obs::kPhaseCategory, track_of(id_));
  span.arg("victim", std::to_string(victim.id()));
  util::Stopwatch watch;
  mf::FactorModel& model = server.model();
  const std::uint32_t k = model.k();
  const auto entries = victim.slice().entries().subspan(lo, hi - lo);

  // Private working set: the chunk's unique items, gathered fresh from the
  // server (stripe-locked).  The scratch evolves within the chunk and is
  // discarded at the end — see the header comment for the measurements
  // behind the P-full / Q-forfeit write policy.
  steal_items_.clear();
  steal_items_.reserve(entries.size());
  for (const auto& e : entries) steal_items_.push_back(e.i);
  std::sort(steal_items_.begin(), steal_items_.end());
  steal_items_.erase(std::unique(steal_items_.begin(), steal_items_.end()),
                     steal_items_.end());
  server.gather_q_rows(steal_items_, steal_q_);
  if (steal_index_.size() < model.items()) steal_index_.resize(model.items());
  for (std::size_t t = 0; t < steal_items_.size(); ++t) {
    steal_index_[steal_items_[t]] = static_cast<std::uint32_t>(t);
  }

  // Same ASGD inner loop as the owned path, with Q indexed through the
  // packed scratch.  P rows are the victim's exclusive rows; the stealing
  // scheduler's row claim guarantees no other in-flight chunk overlaps
  // them, so the in-place update stays race-free.
  constexpr std::size_t kPrefetchAhead = 4;
  for (std::size_t idx = 0; idx < entries.size(); ++idx) {
    if (idx + kPrefetchAhead < entries.size()) {
      const auto& f = entries[idx + kPrefetchAhead];
      mf::sgd_prefetch_rows(model.p(f.u),
                            &steal_q_[std::size_t(steal_index_[f.i]) * k], k);
    }
    const auto& e = entries[idx];
    mf::sgd_update_dispatch(model.p(e.u),
                            &steal_q_[std::size_t(steal_index_[e.i]) * k], k,
                            e.r, lr, reg_p, reg_q);
  }
  counter_updates_->add(entries.size());
  computed_ += entries.size();

  // A non-finite scratch means the P rows just received garbage gradients
  // too — surface it like the owned path would.
  guard_divergence(steal_q_);
  apply_real_stall(watch.seconds());
  record_phase(span.stop(), &obs::PhaseTimes::compute_s, hist_compute_);
  // The scratch Q is dropped here by design (see worker.hpp): the stolen
  // entries' item-side movement is forfeited for this epoch, the user-side
  // movement is already in the model.
}

void TrainWorker::push(Server& server) {
  assert(!local_q_.empty() && "pull() must precede push()");
  if (fault_ != nullptr) {
    fault_->injector().check_phase(id_);
    fault_->injector().begin_push(id_, last_chunk_);
    backend_->begin_epoch(fault_->injector().current_epoch());
  }
  obs::ScopedSpan span("push", obs::kPhaseCategory, track_of(id_));
  const comm::StreamPipeline::RetryFn retry = retry_policy();
  if (sparse_) {
    const std::uint32_t k = server.model().k();
    gather_touched(local_q_, packed_send_, k);
    // Quantized sparse pushes ride the SparseIndexedCodec framing: the
    // packed values go through the int8/2-bit wire with their row indices
    // in-band (wired up in ensure_buffers).
    push_pipe_->set_sparse_rows(touched_);
    push_pipe_->transfer(*backend_, packed_send_, packed_recv_, retry);
    // Untouched rows carry the snapshot, so their merge delta is zero.
    std::copy(snapshot_q_.begin(), snapshot_q_.end(), push_staging_.begin());
    scatter_touched(packed_recv_, push_staging_, k);
  } else {
    push_pipe_->transfer(*backend_, local_q_, push_staging_, retry);
  }
  if (fault_ != nullptr) fault_->injector().end_push(id_);
  record_phase(span.stop(), &obs::PhaseTimes::push_s, hist_push_);

  // The server-side merge is the paper's T_sync term — timed separately
  // and attributed to this worker (the server records its own span).
  // A sparse worker hands the server its touched-row set so the merge
  // locks (and walks) only those stripes.
  const std::span<const std::uint32_t> touched =
      sparse_ ? std::span<const std::uint32_t>(touched_)
              : std::span<const std::uint32_t>();
  util::Stopwatch sync_watch;
  if (!item_weights_.empty()) {
    server.sync_q(push_staging_, snapshot_q_,
                  std::span<const float>(item_weights_), touched);
  } else {
    server.sync_q(push_staging_, snapshot_q_, 1.0f, touched);
  }
  record_phase(sync_watch.seconds(), &obs::PhaseTimes::sync_s, hist_sync_);
}

void TrainWorker::run_pipeline(Server& server, float lr, float reg_p,
                               float reg_q, util::ThreadPool* pool) {
  try {
    pull(server);
    for (std::uint32_t chunk = 0; chunk < streams_; ++chunk) {
      const bool prefetching = double_buffer_ && chunk + 1 < streams_;
      if (prefetching) start_prefetch(server);
      compute_chunk(server, chunk, lr, reg_p, reg_q, pool);
      if (prefetching) join_prefetch();
      push(server);
      if (chunk + 1 < streams_) {
        if (prefetching) {
          fold_own_delta(server.model().k());
          swap_buffers();
        } else {
          // No prefetch in flight: re-pull so the next chunk computes on
          // fresh Q and — critically — pushes against a fresh snapshot
          // (a stale snapshot would re-merge this chunk's delta).
          pull(server);
        }
      }
    }
  } catch (...) {
    // Quiesce the prefetch thread before the exception crosses the epoch
    // barrier; a concurrent prefetch error (if any) is superseded by the
    // exception already in flight.
    if (prefetch_thread_.joinable()) prefetch_thread_.join();
    prefetch_error_ = nullptr;
    throw;
  }
}

}  // namespace hcc::core
