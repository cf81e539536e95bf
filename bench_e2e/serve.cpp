#include "serve.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <span>
#include <thread>

#include "serve/engine.hpp"
#include "simd/dispatch.hpp"
#include "simd/prefetch.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

constexpr std::uint32_t kBlock = 256;  // TopKEngine's default block
constexpr double kRefuseLateS = 2.0;   // a query this late is refused
constexpr std::size_t kWindows = 10;   // p99 is taken per window
constexpr double kMiddleWeight = 6.0;  // the middle rate's share of time
constexpr float kFoldInReg = 0.05f;    // ridge of the cold-start solve

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::chrono::steady_clock::time_point to_time_point(double s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(s)));
}

// Distinct ids in a sorted list (a user may rate an item twice).
std::size_t distinct(std::span<const std::uint32_t> sorted) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    n += i == 0 || sorted[i] != sorted[i - 1] ? 1 : 0;
  }
  return n;
}

struct Sample {
  std::uint32_t epoch = 0;  ///< the snapshot's; names the model it encodes
  std::vector<float> user_row;
  std::vector<std::uint32_t> exclude;
  std::vector<mf::ScoredItem> result;
};

struct ReaderLog {
  std::vector<double> latency_ms, due_s, queue_ms, gen_lag_ms, topk_ms,
      foldin_ms;
  std::vector<Sample> samples;
  std::size_t errors = 0;
  std::size_t refused = 0;
  double last_end = 0.0;
};

void read_stream(const ServeInputs& in, double rate, double t0,
                 std::size_t total, std::uint32_t reader, std::uint64_t seed,
                 bool traced, ReaderLog& log) {
  serve::TopKEngine engine;
  hcc::util::Rng rng(seed);
  double free_at = 0.0;
  for (std::size_t j = reader; j < total; j += kReaders) {
    const double due = t0 + static_cast<double>(j) / rate;
    // Spin until due rather than sleep: on a 4-vCPU virtual machine, waking
    // a thread on an idle vCPU took up to several ms at p99, which swamped
    // the latency being measured.
    while (now_s() < due) cpu_relax();
    const double start = now_s();
    if (start - due > kRefuseLateS) {
      ++log.refused;
      continue;
    }
    const bool cold = !in.cold_profiles.empty() &&
                      j % kFoldInEvery == kFoldInEvery - 1;
    const bool sampled = j % 97 == 0;
    Sample sample;
    double t_fold = 0.0;
    double t_topk = 0.0;
    try {
      auto snapshot = in.registry->current();
      std::vector<mf::ScoredItem> result;
      std::size_t excluded = 0;
      if (cold) {
        const auto& profile =
            in.cold_profiles[rng.uniform_u64(in.cold_profiles.size())];
        const double f0 = now_s();
        std::vector<float> row =
            serve::fold_in(snapshot->store, profile, kFoldInReg);
        const double f1 = now_s();
        std::vector<std::uint32_t> exclude;
        for (const auto& r : profile) exclude.push_back(r.item);
        std::sort(exclude.begin(), exclude.end());
        excluded = distinct(exclude);
        result = engine.top_k_row(*snapshot, row.data(), kTopN, exclude);
        t_fold = f1 - f0;
        t_topk = now_s() - f1;
        if (sampled) {
          sample.user_row = std::move(row);
          sample.exclude = std::move(exclude);
        }
      } else {
        const auto user = static_cast<std::uint32_t>(rng.uniform_u64(in.users));
        const double k0 = now_s();
        result = engine.top_k(*snapshot, user, kTopN, in.seen);
        t_topk = now_s() - k0;
        excluded = distinct(in.seen->items(user));
        if (sampled) {
          sample.user_row.resize(snapshot->store.k());
          snapshot->store.decode_p_row(user, sample.user_row.data());
          const auto seen = in.seen->items(user);
          sample.exclude.assign(seen.begin(), seen.end());
        }
      }
      // A user who rated nearly the whole catalog gets a shorter list.
      const std::size_t candidates = snapshot->store.items() - excluded;
      if (result.size() != std::min(kTopN, candidates)) {
        ++log.errors;
        continue;
      }
      if (sampled) {
        sample.epoch = snapshot->epoch;
        sample.result = std::move(result);
        log.samples.push_back(std::move(sample));
      }
    } catch (const std::exception&) {
      ++log.errors;
      continue;
    }
    const double end = now_s();
    log.latency_ms.push_back((end - due) * 1e3);
    log.due_s.push_back(due);
    if (traced) {
      log.queue_ms.push_back(std::max(0.0, free_at - due) * 1e3);
      log.gen_lag_ms.push_back((start - std::max(due, free_at)) * 1e3);
      log.topk_ms.push_back(t_topk * 1e3);
      if (cold) log.foldin_ms.push_back(t_fold * 1e3);
    }
    free_at = end;
    log.last_end = std::max(log.last_end, end);
  }
}

// Scores every item of `store` for `user_row` in the engine's block layout
// (so each item's dot product runs through the same kernel path), with the
// excluded items masked to -inf.
std::vector<float> brute_scores(const serve::FactorStore& store,
                                const std::vector<float>& decoded,
                                const float* user_row,
                                const std::vector<std::uint32_t>& exclude) {
  const std::uint32_t items = store.items();
  const std::uint32_t k = store.k();
  std::vector<std::uint8_t> mask((items + 7) / 8 + kBlock / 8, 0);
  for (const std::uint32_t e : exclude) {
    if (e < items) mask[e / 8] |= static_cast<std::uint8_t>(1u << (e % 8));
  }
  std::vector<float> scores(items + kBlock);
  const auto& kt = hcc::simd::kernels();
  for (std::uint32_t lo = 0; lo < items; lo += kBlock) {
    const std::uint32_t count = std::min(kBlock, items - lo);
    kt.score_block(user_row, decoded.data() + std::size_t(lo) * k, k, count,
                   mask.data() + lo / 8, scores.data() + lo);
  }
  scores.resize(items);
  return scores;
}

std::vector<float> decode_catalog(const serve::FactorStore& store) {
  std::vector<float> out(std::size_t(store.items()) * store.k());
  for (std::uint32_t lo = 0; lo < store.items(); lo += kBlock) {
    const std::uint32_t count = std::min(kBlock, store.items() - lo);
    store.decode_q_rows(lo, count, out.data() + std::size_t(lo) * store.k());
  }
  return out;
}

// True when `result` is a correct top-N: every entry carries its item's
// exact brute-force score, no excluded item appears, and the score sequence
// equals the brute-force top-N's (so ties may pick either item).
bool exact_top_n(const Sample& s, const serve::FactorStore& store,
                 const std::vector<float>& decoded) {
  const std::vector<float> scores =
      brute_scores(store, decoded, s.user_row.data(), s.exclude);
  std::vector<float> best;
  for (std::uint32_t i = 0; i < scores.size(); ++i) {
    if (!std::binary_search(s.exclude.begin(), s.exclude.end(), i)) {
      best.push_back(scores[i]);
    }
  }
  const std::size_t n = std::min(s.result.size(), best.size());
  std::partial_sort(best.begin(), best.begin() + n, best.end(),
                    std::greater<float>());
  if (s.result.size() != n) return false;
  for (std::size_t t = 0; t < n; ++t) {
    const auto& r = s.result[t];
    if (r.item >= scores.size() || scores[r.item] != r.score ||
        r.score != best[t] ||
        std::binary_search(s.exclude.begin(), s.exclude.end(), r.item)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ServeResult run_serve(const ServePlan& plan, const ServeInputs& in,
                      std::uint64_t seed, bool traced) {
  ServeResult out;
  out.middle = plan.rates_qps.size() / 2;

  // Writer: re-encode and republish on a fixed period until told to stop.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread writer;
  if (plan.writer_period_s > 0.0) {
    writer = std::thread([&] {
      double next = now_s();
      for (std::uint32_t i = 0;; ++i) {
        next += plan.writer_period_s;
        {
          std::unique_lock lock(stop_mutex);
          if (stop_cv.wait_until(lock, to_time_point(next),
                                 [&] { return stop; })) {
            return;
          }
        }
        const mf::FactorModel& m = *in.models[i % in.models.size()];
        const double t0 = now_s();
        auto snap = std::make_shared<serve::ModelSnapshot>();
        snap->epoch = i;
        snap->store = serve::FactorStore(serve::StoreKind::kInt8, m.users(),
                                         m.items(), m.k(), m.p_data(),
                                         m.q_data());
        const double t1 = now_s();
        in.registry->publish(std::move(snap));
        const double t2 = now_s();
        out.encode_ms.push_back((t1 - t0) * 1e3);
        out.swap_us.push_back((t2 - t1) * 1e6);
        out.publish_ms.push_back((t2 - t0) * 1e3);
        ++out.writer_publishes;
      }
    });
  }

  std::vector<Sample> samples;
  // The middle rate, where p50/p99 are reported, runs kMiddleWeight times
  // as long as each other rate.
  const double weight_sum =
      static_cast<double>(plan.rates_qps.size()) - 1.0 + kMiddleWeight;
  for (std::size_t p = 0; p < plan.rates_qps.size(); ++p) {
    const double rate = plan.rates_qps[p];
    const double phase_s =
        plan.seconds * (p == out.middle ? kMiddleWeight : 1.0) / weight_sum;
    const auto total = static_cast<std::size_t>(rate * phase_s);
    std::vector<ReaderLog> logs(kReaders);
    const double t0 = now_s() + 0.01;
    std::vector<std::thread> readers;
    for (std::uint32_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        read_stream(in, rate, t0, total, r,
                    seed * 1000003ULL + p * 101 + r, traced, logs[r]);
      });
    }
    for (auto& t : readers) t.join();

    RatePhase ph;
    ph.rate_qps = rate;
    ph.attempted = total;
    std::vector<double> lat;
    std::vector<std::vector<double>> windows(kWindows);
    double last_end = t0;
    for (auto& log : logs) {
      ph.errors += log.errors;
      ph.refused += log.refused;
      lat.insert(lat.end(), log.latency_ms.begin(), log.latency_ms.end());
      for (std::size_t q = 0; q < log.latency_ms.size(); ++q) {
        const auto w = static_cast<std::size_t>((log.due_s[q] - t0) / phase_s *
                                                static_cast<double>(kWindows));
        windows[std::min(w, kWindows - 1)].push_back(log.latency_ms[q]);
      }
      last_end = std::max(last_end, log.last_end);
      if (p == out.middle) {
        auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
          dst.insert(dst.end(), src.begin(), src.end());
        };
        append(out.queue_ms, log.queue_ms);
        append(out.gen_lag_ms, log.gen_lag_ms);
        append(out.topk_ms, log.topk_ms);
        append(out.foldin_ms, log.foldin_ms);
      }
      for (auto& s : log.samples) {
        if (samples.size() < 256) samples.push_back(std::move(s));
      }
    }
    for (const double l : lat) ph.late += l > plan.limit_ms ? 1 : 0;
    ph.latency_ms = summarize(lat);
    std::sort(lat.begin(), lat.end());
    ph.p99_all_ms = percentile_sorted(lat, 99.0);
    for (auto& w : windows) {
      if (w.empty()) continue;
      std::sort(w.begin(), w.end());
      ph.window_p99_ms.push_back(percentile_sorted(w, 99.0));
    }
    std::sort(ph.window_p99_ms.begin(), ph.window_p99_ms.end());
    ph.p99_ms = ph.window_p99_ms[std::min<std::size_t>(
        2, ph.window_p99_ms.size() - 1)];
    ph.achieved_qps = last_end > t0 ? static_cast<double>(lat.size()) / (last_end - t0)
                                    : 0.0;
    ph.drain_ms = std::max(0.0, last_end - (t0 + phase_s)) * 1e3;
    ph.ok = !lat.empty() && ph.errors == 0 && ph.refused == 0 &&
            ph.p99_ms <= plan.limit_ms &&
            ph.drain_ms <= plan.limit_ms;
    if (ph.ok) out.ok_rate_qps = ph.achieved_qps;
    out.attempted += ph.attempted;
    out.errors += ph.errors;
    out.phases.push_back(ph);
  }

  if (writer.joinable()) {
    {
      std::lock_guard lock(stop_mutex);
      stop = true;
    }
    stop_cv.notify_all();
    writer.join();
  }

  // Snapshots are not kept alive for the check: encoding is deterministic,
  // so each sample's store is rebuilt from the model its epoch names.
  for (std::size_t m = 0; m < in.models.size(); ++m) {
    const mf::FactorModel& model = *in.models[m];
    const serve::FactorStore store(serve::StoreKind::kInt8, model.users(),
                                   model.items(), model.k(), model.p_data(),
                                   model.q_data());
    const std::vector<float> decoded = decode_catalog(store);
    for (const auto& s : samples) {
      if (s.epoch % in.models.size() != m) continue;
      ++out.exact_checked;
      if (!exact_top_n(s, store, decoded)) ++out.exact_mismatches;
    }
  }
  return out;
}

double recall_at_10(const serve::ModelSnapshot& store,
                    const serve::ModelSnapshot& exact,
                    const mf::SeenIndex& seen, std::size_t samples,
                    std::uint64_t seed) {
  serve::TopKEngine a({.block_items = kBlock, .record_metrics = false});
  serve::TopKEngine b({.block_items = kBlock, .record_metrics = false});
  hcc::util::Rng rng(seed);
  double hits = 0.0;
  double total = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto user =
        static_cast<std::uint32_t>(rng.uniform_u64(store.store.users()));
    const auto got = a.top_k(store, user, kTopN, &seen);
    const auto want = b.top_k(exact, user, kTopN, &seen);
    for (const auto& w : want) {
      for (const auto& g : got) {
        if (g.item == w.item) {
          hits += 1.0;
          break;
        }
      }
    }
    total += static_cast<double>(want.size());
  }
  return total > 0.0 ? hits / total : 0.0;
}

ScanParts time_scan_parts(const serve::ModelSnapshot& snapshot) {
  // The engine's own layout: hint the next block's bytes, decode one block
  // into a reused scratch, then score it; each part is timed per block and
  // summed over the catalog.
  const serve::FactorStore& store = snapshot.store;
  const std::uint32_t k = store.k();
  std::vector<float> user(k);
  store.decode_p_row(0, user.data());
  std::vector<float> scratch(std::size_t(kBlock) * k);
  std::vector<float> scores(kBlock);
  const std::vector<std::uint8_t> mask(kBlock / 8, 0);
  const auto& kt = hcc::simd::kernels();
  serve::TopKEngine engine({.block_items = kBlock, .record_metrics = false});
  std::vector<double> topk, dec, sc;
  float sink = 0.0f;
  for (int rep = 0; rep < 9; ++rep) {
    const double s0 = now_s();
    sink += engine.top_k_row(snapshot, user.data(), kTopN).front().score;
    topk.push_back((now_s() - s0) * 1e3);
    double d = 0.0;
    double c = 0.0;
    for (std::uint32_t lo = 0; lo < store.items(); lo += kBlock) {
      const std::uint32_t count = std::min(kBlock, store.items() - lo);
      if (lo + kBlock < store.items()) {
        const auto* next = static_cast<const std::byte*>(store.q_raw(lo + kBlock));
        const std::size_t bytes =
            std::min<std::size_t>(store.q_row_bytes() * 4,
                                  store.q_row_bytes() * (store.items() - lo - kBlock));
        for (std::size_t off = 0; off < bytes; off += 64) {
          hcc::simd::prefetch_line(next + off);
        }
      }
      const double t0 = now_s();
      store.decode_q_rows(lo, count, scratch.data());
      const double t1 = now_s();
      kt.score_block(user.data(), scratch.data(), k, count, mask.data(),
                     scores.data());
      const double t2 = now_s();
      sink += scores[0];
      d += t1 - t0;
      c += t2 - t1;
    }
    dec.push_back(d * 1e3);
    sc.push_back(c * 1e3);
  }
  volatile float keep = sink;
  (void)keep;
  return {median(topk), median(dec), median(sc)};
}

}  // namespace bench
