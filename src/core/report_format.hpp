// Human-readable rendering of train reports.
//
// Examples and downstream tools want a consistent one-look summary of a
// run: the plan, the convergence trace, the throughput/utilization and the
// wire accounting.  This keeps that formatting in one tested place instead
// of re-implemented per example.
#pragma once

#include <string>

#include "core/hccmf.hpp"

namespace hcc::core {

/// Multi-line summary of a run: plan line, first/best/last RMSE (when
/// evaluated), total virtual time, computing power + utilization, wire
/// traffic, repartition count.
std::string format_report(const TrainReport& report);

/// Cost-model drift table of the last epoch (measured phase times vs the
/// Eq. 1-5 predictions), one row per worker; empty string when the report
/// carries no drift data.  `worker_names` labels rows (device names).
std::string format_drift_table(const TrainReport& report,
                               const std::vector<std::string>& worker_names =
                                   {});

}  // namespace hcc::core
