#include "comm/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "util/clock.hpp"

namespace hcc::comm {

namespace {

/// Applies the caller's retry policy, or runs the attempt once when the
/// caller passed none.
void run_with(const StreamPipeline::RetryFn& retry,
              const std::function<void()>& attempt) {
  if (retry) {
    retry(attempt);
  } else {
    attempt();
  }
}

std::atomic<StreamPipeline::Threading> g_threading{
    StreamPipeline::Threading::kAuto};

/// kAuto: an encoder thread only overlaps anything when a second hardware
/// thread exists to run it; on a single core it just adds context
/// switches on the critical path.  An unknown core count (0) assumes the
/// common multi-core case.
bool use_encoder_thread() {
  switch (g_threading.load(std::memory_order_relaxed)) {
    case StreamPipeline::Threading::kInline:
      return false;
    case StreamPipeline::Threading::kThreaded:
      return true;
    case StreamPipeline::Threading::kAuto:
      break;
  }
  return std::thread::hardware_concurrency() != 1;
}

}  // namespace

void StreamPipeline::set_threading(Threading mode) noexcept {
  g_threading.store(mode, std::memory_order_relaxed);
}

StreamPipeline::Threading StreamPipeline::threading() noexcept {
  return g_threading.load(std::memory_order_relaxed);
}

StreamPipeline::StreamPipeline(const CommConfig& config, std::size_t row_elems,
                               Direction direction, bool sparse_indexed)
    : config_(config),
      row_elems_(row_elems > 0 ? row_elems : 1),
      dir_(direction),
      sparse_indexed_(sparse_indexed),
      depth_(std::max(1u, config.pipeline_depth)) {
  // A chunk carries at least `codec_threads` pool-parallel stripes' worth of
  // floats so the 0-thread per-chunk codecs don't lose throughput to the
  // monolithic pooled codec, rounded down to whole rows so quantized scale
  // blocks (one per row) never straddle chunks.
  const std::size_t threads = std::max(1u, config_.codec_threads);
  const std::size_t target =
      std::max(row_elems_, threads * Fp16Codec::kParallelThreshold);
  chunk_floats_ = (target / row_elems_) * row_elems_;
}

std::size_t StreamPipeline::chunk_count(std::size_t n_floats) const noexcept {
  if (depth_ <= 1) return 1;
  return std::max<std::size_t>(
      1, (n_floats + chunk_floats_ - 1) / chunk_floats_);
}

void StreamPipeline::reset_state() {
  for (auto& codec : codecs_) codec->reset_state();
}

std::unique_ptr<Codec> StreamPipeline::build_codec(
    std::uint32_t threads) const {
  CommConfig config = config_;
  config.codec_threads = threads;
  auto inner = dir_ == Direction::kPull ? make_pull_codec(config, row_elems_)
                                        : make_codec(config, row_elems_);
  // Only stateful (quantized) payloads gain the row-index frame: their
  // sparse wire wasn't self-describing before, while fp32/fp16 sparse
  // transfers stay bit-identical to the legacy format.
  if (sparse_indexed_ && inner->stateful()) {
    return std::make_unique<SparseIndexedCodec>(std::move(inner), row_elems_);
  }
  return inner;
}

std::string StreamPipeline::codec_name() {
  if (!codecs_.empty()) return codecs_.front()->name();
  return build_codec(0)->name();
}

void StreamPipeline::ensure_pipeline_metrics() {
  if (chunks_counter_ != nullptr) return;
  auto& reg = obs::registry();
  chunks_counter_ = &reg.counter("comm.pipeline.chunks");
  inflight_gauge_ = &reg.gauge("comm.pipeline.inflight_peak");
  stall_hist_ = &reg.histogram("comm.pipeline.stall_ms");
  overlap_gauge_ = &reg.gauge("comm.pipeline.overlap_ratio");
}

std::pair<std::size_t, std::size_t> StreamPipeline::chunk_range(
    std::size_t chunk) const {
  const std::size_t lo = chunk * chunk_floats_;
  return {std::min(n_floats_, lo),
          std::min(n_floats_, lo + chunk_floats_)};
}

void StreamPipeline::ensure_layout(std::size_t n_floats) {
  if (depth_ <= 1) {
    // Legacy shape: one codec for every size (QuantizedCodec re-keyframes
    // internally when the float count changes, exactly as before this
    // pipeline existed).
    if (codecs_.empty()) {
      codecs_.push_back(build_codec(config_.codec_threads));
      sparse_views_.push_back(
          dynamic_cast<SparseIndexedCodec*>(codecs_.front().get()));
    }
    n_floats_ = n_floats;
    return;
  }
  const std::size_t chunks = chunk_count(n_floats);
  if (codecs_.size() != chunks) {
    // Chunk-count changes re-partition state; size drift inside the last
    // chunk is handled by that chunk's codec keyframing itself.
    codecs_.clear();
    sparse_views_.clear();
    codecs_.reserve(chunks);
    sparse_views_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      codecs_.push_back(build_codec(0));
      sparse_views_.push_back(
          dynamic_cast<SparseIndexedCodec*>(codecs_.back().get()));
    }
  }
  n_floats_ = n_floats;
}

void StreamPipeline::transfer(CommBackend& backend, std::span<const float> src,
                              std::span<float> dst, const RetryFn& retry,
                              const ChunkHook& on_chunk) {
  assert(src.size() == dst.size());
  ensure_layout(src.size());
  if (depth_ <= 1) {
    transfer_single(backend, src, dst, retry, on_chunk);
  } else {
    transfer_chunked(backend, src, dst, retry, on_chunk);
  }
}

void StreamPipeline::transfer_single(CommBackend& backend,
                                     std::span<const float> src,
                                     std::span<float> dst,
                                     const RetryFn& retry,
                                     const ChunkHook& on_chunk) {
  if (sparse_views_.front() != nullptr) {
    sparse_views_.front()->set_rows(sparse_rows_);
  }
  Codec& codec = *codecs_.front();
  run_with(retry, [&] { backend.transfer(src, dst, codec); });
  if (on_chunk) on_chunk(0, dst.size());
}

void StreamPipeline::transfer_chunked(CommBackend& backend,
                                      std::span<const float> src,
                                      std::span<float> dst,
                                      const RetryFn& retry,
                                      const ChunkHook& on_chunk) {
  ensure_pipeline_metrics();
  const std::size_t chunks = codecs_.size();
  const std::size_t window = std::min<std::size_t>(depth_, chunks);

  if (sparse_indexed_) {
    for (std::size_t c = 0; c < chunks; ++c) {
      if (sparse_views_[c] == nullptr) continue;
      const auto [lo, hi] = chunk_range(c);
      sparse_views_[c]->set_rows(
          sparse_rows_.subspan(lo / row_elems_, (hi - lo) / row_elems_));
    }
  }

  if (!use_encoder_thread()) {
    transfer_chunked_inline(backend, src, dst, retry, on_chunk);
    return;
  }

  // The in-flight ring.  Slot ownership alternates encoder -> main: the
  // encoder fills a slot when `encoded` is false, the main thread submits
  // and (much later) commits it, releasing the slot only after a
  // successful decode so the pristine bytes survive for ChecksumError
  // re-submission.  The acquire/release flag is the only synchronization
  // the wire buffers need; the mutex + condvar exist purely so a thread
  // with nothing to do can sleep instead of spinning.  The main thread
  // checks flags non-blockingly while it has chunks in flight, so in
  // steady state (encode faster than commit) neither thread's condvar
  // wake latency sits on the critical path.
  struct Slot {
    std::vector<std::byte> wire;
    std::atomic<bool> encoded{false};
  };
  std::vector<Slot> ring(window);

  std::mutex mu;
  std::condition_variable cv;
  bool abort = false;
  std::exception_ptr encode_error;
  double encode_s = 0.0;  // encoder-thread-owned until the join

  util::Stopwatch wall;
  std::thread encoder([&] {
    try {
      util::Stopwatch watch;
      for (std::size_t c = 0; c < chunks; ++c) {
        Slot& slot = ring[c % window];
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return abort || !slot.encoded.load(std::memory_order_acquire);
          });
          if (abort) return;
        }
        const auto [lo, hi] = chunk_range(c);
        Codec& codec = *codecs_[c];
        slot.wire.resize(codec.encoded_bytes(hi - lo));
        watch.reset();
        codec.encode(src.subspan(lo, hi - lo), slot.wire);
        encode_s += watch.seconds();
        slot.encoded.store(true, std::memory_order_release);
        { std::lock_guard<std::mutex> lock(mu); }  // pairs with cv.wait
        cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        encode_error = std::current_exception();
        abort = true;
      }
      cv.notify_all();
    }
  });

  double stall_s = 0.0;
  double commit_s = 0.0;
  std::size_t inflight_peak = 0;
  std::size_t submitted = 0;
  std::size_t committed = 0;
  util::Stopwatch watch;
  try {
    while (committed < chunks) {
      // Fill the window opportunistically: submit every chunk the encoder
      // already finished, without blocking — the wire keeps streaming as
      // long as something is in flight, and commit work below hides the
      // encoder's latency for the rest.
      while (submitted < chunks && submitted - committed < window &&
             ring[submitted % window].encoded.load(
                 std::memory_order_acquire)) {
        backend.submit_chunk(ring[submitted % window].wire);
        ++submitted;
        inflight_peak = std::max(inflight_peak, backend.chunks_in_flight());
      }
      // Pipe ran dry (nothing in flight to commit): block for the next
      // encoded chunk.  This is the only place the main thread sleeps on
      // the encoder, so only a truly encode-bound transfer stalls here.
      if (submitted == committed) {
        Slot& slot = ring[submitted % window];
        bool aborted = false;
        watch.reset();
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return abort || slot.encoded.load(std::memory_order_acquire);
          });
          aborted = abort;
        }
        stall_s += watch.seconds();
        if (aborted) break;
        backend.submit_chunk(slot.wire);
        ++submitted;
        inflight_peak = std::max(inflight_peak, backend.chunks_in_flight());
      }

      // Commit the oldest outstanding chunk.  On ChecksumError the same
      // attempt re-submits the slot's pristine bytes first, so the retry
      // wire is byte-identical and EF state (committed only by decode)
      // stays consistent.
      const std::size_t c = committed;
      Slot& slot = ring[c % window];
      const auto [lo, hi] = chunk_range(c);
      bool resend = false;
      run_with(retry, [&] {
        if (resend) backend.submit_chunk(slot.wire);
        resend = true;
        watch.reset();
        const std::span<const std::byte> delivered = backend.await_chunk();
        stall_s += watch.seconds();
        watch.reset();
        codecs_[c]->decode(delivered, dst.subspan(lo, hi - lo));
        commit_s += watch.seconds();
      });
      if (on_chunk) on_chunk(lo, hi);
      ++committed;
      slot.encoded.store(false, std::memory_order_release);  // slot freed
      { std::lock_guard<std::mutex> lock(mu); }  // pairs with cv.wait
      cv.notify_all();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
    }
    cv.notify_all();
    encoder.join();
    throw;
  }
  encoder.join();
  if (encode_error) std::rethrow_exception(encode_error);
  backend.settle_chunks();

  // Overlap accounting: the main thread's wall clock already contains the
  // decode/commit work and every stall; the encoder's busy time rides on
  // top.  Serial execution gives a ratio near 1, full encode/commit
  // overlap pushes it toward 2.
  const double wall_s = wall.seconds();
  chunks_counter_->add(chunks);
  inflight_gauge_->set(static_cast<double>(inflight_peak));
  stall_hist_->observe(stall_s * 1e3);
  if (wall_s > 0.0) {
    overlap_gauge_->set((encode_s + commit_s + stall_s) / wall_s);
  }
}

void StreamPipeline::transfer_chunked_inline(CommBackend& backend,
                                             std::span<const float> src,
                                             std::span<float> dst,
                                             const RetryFn& retry,
                                             const ChunkHook& on_chunk) {
  const std::size_t chunks = codecs_.size();
  const std::size_t window = std::min<std::size_t>(depth_, chunks);
  // Same ring, same submit/commit order as the threaded executor — the
  // wire is bit-identical — minus the encoder thread: encode-and-submit
  // until the window fills, then commit the oldest.  A slot's pristine
  // bytes survive until its commit for ChecksumError re-submission.
  std::vector<std::vector<std::byte>> ring(window);

  double encode_s = 0.0;
  double stall_s = 0.0;
  double commit_s = 0.0;
  std::size_t inflight_peak = 0;
  std::size_t submitted = 0;
  std::size_t committed = 0;
  util::Stopwatch wall;
  util::Stopwatch watch;
  while (committed < chunks) {
    while (submitted < chunks && submitted - committed < window) {
      std::vector<std::byte>& wire = ring[submitted % window];
      const auto [lo, hi] = chunk_range(submitted);
      wire.resize(codecs_[submitted]->encoded_bytes(hi - lo));
      watch.reset();
      codecs_[submitted]->encode(src.subspan(lo, hi - lo), wire);
      encode_s += watch.seconds();
      backend.submit_chunk(wire);
      ++submitted;
      inflight_peak = std::max(inflight_peak, backend.chunks_in_flight());
    }

    const std::size_t c = committed;
    std::vector<std::byte>& wire = ring[c % window];
    const auto [lo, hi] = chunk_range(c);
    bool resend = false;
    run_with(retry, [&] {
      if (resend) backend.submit_chunk(wire);
      resend = true;
      watch.reset();
      const std::span<const std::byte> delivered = backend.await_chunk();
      stall_s += watch.seconds();
      watch.reset();
      codecs_[c]->decode(delivered, dst.subspan(lo, hi - lo));
      commit_s += watch.seconds();
    });
    if (on_chunk) on_chunk(lo, hi);
    ++committed;
  }
  backend.settle_chunks();

  const double wall_s = wall.seconds();
  chunks_counter_->add(chunks);
  inflight_gauge_->set(static_cast<double>(inflight_peak));
  stall_hist_->observe(stall_s * 1e3);
  if (wall_s > 0.0) {
    overlap_gauge_->set((encode_s + commit_s + stall_s) / wall_s);
  }
}

}  // namespace hcc::comm
