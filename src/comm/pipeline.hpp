// Chunked streaming pipeline for the push/pull wire paths.
//
// A StreamPipeline splits one logical P/Q transfer into row-aligned chunks
// and runs a bounded ring of them in flight through a CommBackend's
// split-phase chunk API (backend.hpp): while chunk i-1 crosses the wire and
// commits on the receiver, chunk i's EF encode is already underway.  In
// steady state each chunk therefore costs max(encode, wire, commit)
// instead of their sum — the Eq. 1 overlap term the cost model
// (core/cost_model.cpp) predicts and bench_table5_comm measures.
//
// The executor is core-aware.  With >= 2 hardware threads a dedicated
// encoder thread produces chunks ahead of the main thread's submit/commit
// loop, overlapping encode with wire and commit.  On a single-core host a
// second thread cannot overlap anything — it only adds context switches —
// so the same windowed ring runs inline: encode-and-submit until the
// window fills, then commit the oldest.  Both executors emit chunks in the
// same order, so the wire is bit-identical either way; what remains on a
// single core is the wire-level overlap (several frames in flight share
// the link instead of paying one round trip per chunk).
//
// Guarantees:
//  - depth 1 is the legacy path, bit-identical: one codec over the whole
//    array, one CommBackend::transfer() call, the same metrics.
//  - depth > 1 decodes to bit-identical floats: the quantized codecs scale
//    per k-block and chunks are block-aligned, so per-chunk codec state
//    partitions the monolithic codec's state exactly.
//  - error feedback survives retries: a chunk aborted by ChecksumError is
//    re-submitted from its pristine ring slot (codec state only commits at
//    decode), so the retry wire is byte-identical per chunk.
//  - chunks commit in submission order; the on_chunk hook fires as each
//    chunk's floats land, letting the worker overlap snapshot copies too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/backend.hpp"
#include "comm/codec.hpp"
#include "comm/strategy.hpp"
#include "obs/metrics.hpp"

namespace hcc::comm {

/// One direction's chunked transfer engine.  Owns the per-chunk codec
/// instances (so EF state persists across epochs) and the in-flight ring.
class StreamPipeline {
 public:
  enum class Direction {
    kPull,  ///< server -> worker (uses pull_codec_kind: no 2-bit pulls)
    kPush,  ///< worker -> server
  };

  /// How depth > 1 transfers drive the ring.  kAuto picks kThreaded when
  /// the host has >= 2 hardware threads and kInline otherwise; both emit
  /// bit-identical wire.  Process-wide test/bench seam.
  enum class Threading {
    kAuto,
    kInline,    ///< windowed ring on the calling thread only
    kThreaded,  ///< dedicated encoder thread feeds the ring
  };
  static void set_threading(Threading mode) noexcept;
  static Threading threading() noexcept;

  /// Wraps one delivery attempt with the caller's retry policy (fault
  /// counting, bounded retries, backoff).  The pipeline invokes the inner
  /// callable; it throws ChecksumError when the chunk needs re-sending and
  /// the same callable re-submits pristine bytes on its next invocation.
  using RetryFn = std::function<void(const std::function<void()>&)>;

  /// Fires after chunk [lo, hi) (float offsets into dst) has committed —
  /// in order — so per-chunk post-processing overlaps the remaining wire.
  using ChunkHook = std::function<void(std::size_t lo, std::size_t hi)>;

  /// `row_elems` is the factor rank k (chunks stay row-aligned and the
  /// quantized codecs scale per row); `sparse_indexed` frames quantized
  /// payloads with their row indices (SparseIndexedCodec) for the sparse
  /// push path — stateless codecs stay unwrapped, keeping the legacy
  /// fp32/fp16 sparse wire bit-identical.
  StreamPipeline(const CommConfig& config, std::size_t row_elems,
                 Direction direction, bool sparse_indexed = false);

  /// In-flight window; 1 = legacy single-shot transfers.
  std::uint32_t depth() const noexcept { return depth_; }
  /// Row-aligned floats per chunk (sized from codec_threads so a 0-thread
  /// per-chunk codec still saturates: threads x kParallelThreshold).
  std::size_t chunk_floats() const noexcept { return chunk_floats_; }
  /// Chunks an n-float transfer splits into at the current depth.
  std::size_t chunk_count(std::size_t n_floats) const noexcept;

  /// Drops all codec EF state; the next transfer per chunk is a keyframe.
  void reset_state();

  /// Row indices backing the sparse-indexed framing; must cover the rows of
  /// the next packed transfer, in payload order.  The span must stay valid
  /// through the transfer call.
  void set_sparse_rows(std::span<const std::uint32_t> rows) noexcept {
    sparse_rows_ = rows;
  }

  /// Wire codec label for logs/summaries ("int8", "sparse+int8", ...).
  std::string codec_name();

  /// Moves src into dst through `backend`.  With depth 1 this is exactly
  /// one backend.transfer(); with depth > 1 it streams chunks through the
  /// split-phase API, overlapping encode / wire / commit.
  void transfer(CommBackend& backend, std::span<const float> src,
                std::span<float> dst, const RetryFn& retry = {},
                const ChunkHook& on_chunk = {});

 private:
  void ensure_layout(std::size_t n_floats);
  std::unique_ptr<Codec> build_codec(std::uint32_t threads) const;
  void ensure_pipeline_metrics();
  std::pair<std::size_t, std::size_t> chunk_range(std::size_t chunk) const;
  void transfer_single(CommBackend& backend, std::span<const float> src,
                       std::span<float> dst, const RetryFn& retry,
                       const ChunkHook& on_chunk);
  void transfer_chunked(CommBackend& backend, std::span<const float> src,
                        std::span<float> dst, const RetryFn& retry,
                        const ChunkHook& on_chunk);
  void transfer_chunked_inline(CommBackend& backend,
                               std::span<const float> src,
                               std::span<float> dst, const RetryFn& retry,
                               const ChunkHook& on_chunk);

  CommConfig config_;
  std::size_t row_elems_;
  Direction dir_;
  bool sparse_indexed_;
  std::uint32_t depth_;
  std::size_t chunk_floats_;

  /// depth 1: exactly one codec over the whole array.  depth > 1: one per
  /// chunk, each created with 0 threads (the encoder thread and the chunk
  /// fan-out are the parallelism; nesting pools would explode threads).
  std::vector<std::unique_ptr<Codec>> codecs_;
  /// Aligned with codecs_: the SparseIndexedCodec view when wrapped.
  std::vector<SparseIndexedCodec*> sparse_views_;
  std::size_t n_floats_ = 0;

  std::span<const std::uint32_t> sparse_rows_;

  obs::Counter* chunks_counter_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Histogram* stall_hist_ = nullptr;
  obs::Gauge* overlap_gauge_ = nullptr;
};

}  // namespace hcc::comm
