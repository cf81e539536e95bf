#include "sim/timing.hpp"

#include <algorithm>
#include <cassert>

#include "util/rng.hpp"

namespace hcc::sim {

namespace {

constexpr double kGiga = 1e9;

struct PushEvent {
  double at = 0.0;        ///< push completion instant
  double duration = 0.0;  ///< server time to merge this chunk
  std::size_t worker = 0;
};

/// One sync actually serviced by the server (post-FIFO schedule).
struct ServedSync {
  double start = 0.0;
  double duration = 0.0;
};

/// Seconds the server needs to merge `sync_bytes` of pushed features:
/// three read/write memory operations plus one multiply-add per feature
/// (Eq. 3; the paper drops the P_server term, we keep it).
double sync_seconds(const ServerSpec& server, double sync_bytes) {
  const double elements = sync_bytes / 4.0;
  return 3.0 * sync_bytes / (server.mem_bandwidth_gbs * kGiga) +
         elements / (server.compute_gflops * kGiga);
}

EpochTiming run_once(const EpochConfig& config,
                     const std::vector<double>& extra_compute_s,
                     std::vector<ServedSync>* served = nullptr) {
  EpochTiming timing;
  timing.workers.resize(config.workers.size());

  util::Rng jitter_rng(config.seed);
  std::vector<PushEvent> events;

  for (std::size_t w = 0; w < config.workers.size(); ++w) {
    const WorkerPlan& plan = config.workers[w];
    WorkerTiming& out = timing.workers[w];
    if (plan.share <= 0.0 && plan.comm.pull_bytes <= 0.0) continue;

    double jitter_factor = 1.0;
    if (config.jitter > 0.0) {
      jitter_factor =
          std::max(0.5, 1.0 + config.jitter * jitter_rng.normal());
    }
    const double rate_scale = plan.rate_scale > 0.0 ? plan.rate_scale : 1.0;
    const double comp_total =
        compute_seconds(plan.device, config.shape, plan.share) *
            jitter_factor / rate_scale +
        plan.device.epoch_overhead_s + extra_compute_s[w];

    const std::uint32_t streams = std::max(1u, plan.comm.streams);
    const double bus_gbs =
        bus_bandwidth_gbs(plan.device.bus) * plan.comm.bus_efficiency;
    const double pull_chunk =
        plan.comm.pull_bytes / streams / (bus_gbs * kGiga);
    const double push_chunk =
        plan.comm.push_bytes / streams / (bus_gbs * kGiga);
    const double comp_chunk = comp_total / streams;
    const double sync_chunk_bytes = plan.comm.sync_bytes / streams;

    // Chunk pipeline: the copy engine serializes pulls among themselves and
    // pushes among themselves; compute chunk i needs pull chunk i done and
    // the previous compute chunk finished.
    double pull_end = 0.0;
    double comp_end = 0.0;
    double push_end = 0.0;
    for (std::uint32_t c = 0; c < streams; ++c) {
      pull_end = (c == 0 ? 0.0 : pull_end) + pull_chunk;
      comp_end = std::max(pull_end, comp_end) + comp_chunk;
      push_end = std::max(comp_end, push_end) + push_chunk;
      events.push_back(PushEvent{
          push_end, sync_seconds(config.server, sync_chunk_bytes), w});
    }
    out.pull_s = pull_chunk * streams;
    out.compute_s = comp_total;
    out.push_s = push_chunk * streams;
    out.finish_s = push_end;
  }

  // The server's sync thread services pushes serially, FIFO by arrival.
  std::stable_sort(events.begin(), events.end(),
                   [](const PushEvent& a, const PushEvent& b) {
                     return a.at < b.at;
                   });
  double server_free = 0.0;
  for (const auto& ev : events) {
    const double start = std::max(ev.at, server_free);
    const double end = start + ev.duration;
    server_free = end;
    timing.server_busy_s += ev.duration;
    if (served != nullptr) served->push_back(ServedSync{start, ev.duration});
    WorkerTiming& out = timing.workers[ev.worker];
    out.sync_s += ev.duration;
    out.sync_end_s = std::max(out.sync_end_s, end);
  }

  for (const auto& out : timing.workers) {
    timing.epoch_s = std::max({timing.epoch_s, out.finish_s, out.sync_end_s});
  }
  return timing;
}

}  // namespace

EpochTiming simulate_epoch(const EpochConfig& config) {
  // Pass 1 (no contention) establishes the server's sync schedule; pass 2
  // charges workers time-sharing the server's CPU for the sync work that
  // overlaps their own compute window.  Syncs serviced after such a worker
  // already finished (the common case under balanced partitions, where
  // pushes pile up at the epoch's end) cost it nothing.
  std::vector<double> extra(config.workers.size(), 0.0);
  std::vector<ServedSync> served;
  const EpochTiming first = run_once(config, extra, &served);

  bool any_contention = false;
  for (std::size_t i = 0; i < config.workers.size(); ++i) {
    if (config.workers[i].device.bus != BusKind::kLocal ||
        config.workers[i].share <= 0.0) {
      continue;
    }
    double overlap = 0.0;
    for (const auto& job : served) {
      if (job.start < first.workers[i].finish_s) overlap += job.duration;
    }
    if (overlap > 0.0) {
      extra[i] = overlap;
      any_contention = true;
    }
  }
  if (!any_contention) return first;
  return run_once(config, extra);
}

}  // namespace hcc::sim
