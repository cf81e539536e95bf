#include "sim/trace_export.hpp"

#include "util/csv.hpp"
#include "util/table.hpp"

namespace hcc::sim {

bool export_epoch_csv(const EpochTiming& timing,
                      const std::vector<std::string>& worker_names,
                      const std::string& path) {
  util::CsvWriter csv(path, {"worker", "device", "pull_s", "compute_s",
                             "push_s", "sync_s", "finish_s", "sync_end_s"});
  if (!csv.ok()) return false;
  for (std::size_t w = 0; w < timing.workers.size(); ++w) {
    const auto& wt = timing.workers[w];
    csv.row({std::to_string(w),
             w < worker_names.size() ? worker_names[w] : "",
             util::Table::num(wt.pull_s, 9), util::Table::num(wt.compute_s, 9),
             util::Table::num(wt.push_s, 9), util::Table::num(wt.sync_s, 9),
             util::Table::num(wt.finish_s, 9),
             util::Table::num(wt.sync_end_s, 9)});
  }
  csv.row({"epoch", "", "", "", "", util::Table::num(timing.server_busy_s, 9),
           "", util::Table::num(timing.epoch_s, 9)});
  return true;
}

bool export_series_csv(const std::vector<std::string>& columns,
                       const std::vector<std::vector<double>>& rows,
                       const std::string& path) {
  util::CsvWriter csv(path, columns);
  if (!csv.ok()) return false;
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (double v : row) cells.push_back(util::Table::num(v, 9));
    csv.row(cells);
  }
  return true;
}

}  // namespace hcc::sim
