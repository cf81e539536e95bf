#include "core/report_format.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/drift.hpp"
#include "util/table.hpp"

namespace hcc::core {

std::string format_report(const TrainReport& report) {
  std::ostringstream os;
  os << "plan: " << report.plan.explanation << '\n';

  // RMSE trace summary (functional runs only).
  double first = std::numeric_limits<double>::quiet_NaN();
  double last = first;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& e : report.epochs) {
    if (std::isnan(e.test_rmse)) continue;
    if (std::isnan(first)) first = e.test_rmse;
    last = e.test_rmse;
    best = std::min(best, e.test_rmse);
  }
  if (!std::isnan(first)) {
    os << "test RMSE: " << util::Table::num(first, 4) << " -> "
       << util::Table::num(last, 4) << " (best "
       << util::Table::num(best, 4) << ")\n";
  }

  os << "virtual time: " << util::Table::num(report.total_virtual_s, 4)
     << " s over " << report.epochs.size() << " epochs\n";
  os << "computing power: "
     << util::Table::num(report.updates_per_s / 1e6, 1) << " Mupdates/s ("
     << util::Table::num(100.0 * report.utilization, 1)
     << "% of the platform's ideal)\n";
  if (report.comm_totals.wire_bytes > 0) {
    os << "wire traffic: "
       << util::Table::num(
              static_cast<double>(report.comm_totals.wire_bytes) / 1e6, 2)
       << " MB in " << report.comm_totals.copies << " transfers\n";
  }
  if (report.repartitions > 0) {
    os << "adaptive repartitions: " << report.repartitions << '\n';
  }
  if (!report.epochs.empty() &&
      !report.epochs.back().drift.workers.empty()) {
    const obs::DriftReport& drift = report.epochs.back().drift;
    os << "cost-model drift (last epoch): max "
       << util::Table::num(100.0 * drift.max_abs_rel_err, 1) << "%, mean "
       << util::Table::num(100.0 * drift.mean_abs_rel_err, 1) << "%\n";
  }
  return os.str();
}

std::string format_drift_table(const TrainReport& report,
                               const std::vector<std::string>& worker_names) {
  if (report.epochs.empty() || report.epochs.back().drift.workers.empty()) {
    return "";
  }
  return obs::format_drift(report.epochs.back().drift, worker_names);
}

}  // namespace hcc::core
