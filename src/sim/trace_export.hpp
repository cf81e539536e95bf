// Export of epoch timings to CSV (for plotting the Figure 5/8 timelines
// and the Figure 7/9 series outside this repo) — fed by either simulated
// EpochTimings or the measured records the instrumented runtime emits in
// the same shape.
#pragma once

#include <string>
#include <vector>

#include "sim/timing.hpp"

namespace hcc::sim {

/// Writes one row per worker: worker, device, pull_s, compute_s, push_s,
/// sync_s, finish_s, sync_end_s — plus a trailing "epoch" summary row.
/// Returns false on IO failure.
bool export_epoch_csv(const EpochTiming& timing,
                      const std::vector<std::string>& worker_names,
                      const std::string& path);

/// Writes a generic series: one row per (x, y...) tuple with the given
/// column names.  Used by benches' --csv flags.
bool export_series_csv(const std::vector<std::string>& columns,
                       const std::vector<std::vector<double>>& rows,
                       const std::string& path);

}  // namespace hcc::sim
