// The benchmark's workloads: closed-loop clients driving a Service over a
// FragmentStore on the real filesystem (DeviceModel::unthrottled, the
// store's own flush policy of fsyncing file and directory on every commit).
//
//   scan-hot     4 clients of Session::scan on m/10 boxes of a paper-scale
//                2-D GSP store that fits the cache (warmed before timing):
//                format scans, merge, batching and the read fan-out do the
//                work; cache and file I/O do almost none.
//   lookup-cold  4 clients of Session::read, 512 points per op, on a 3-D
//                GSP store whose decoded size is far above the cache
//                budget: cache misses (file read, CRC, decode) dominate,
//                with no merge of scan runs and no batching.
//   mixed-rw     1 writer rewriting row bands (consolidating every 16
//                writes) and 3 scanning readers: the only workload that
//                runs the write path and compaction, next to reads.
//
// Every result is checked against the generated dataset; a wrong or failed
// op counts in `failed`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< ops or spans behind the value (0: a gauge)
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: small tensors, one setup, no minimum sample counts.
  bool small = false;
  /// Stores and scratch files live here; the run removes what it creates.
  std::filesystem::path work_dir;
  std::string git_sha = "unknown";
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  /// End-to-end metrics, or the per-layer ones for a traced run.
  std::vector<Metric> metrics;
  /// Printed beside them but not part of the result JSON.
  std::vector<Metric> printed;
  std::string run_record_json;
  std::string spans_json;  ///< traced runs only

  bool correct() const { return failed == 0; }
};

std::vector<std::string> workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
