// perfbench_e2e: runs one workload and prints its metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; with --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones. Exits 1 when any op failed or returned a
// wrong result, 2 on bad arguments or a failed set-up.
//
//   perfbench_e2e --workload scan-hot --seed 1 --seconds 10 --trace 0
//                 --work-dir DIR [--out-dir DIR] [--git-sha SHA]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--out-dir DIR] [--git-sha SHA]\n");
}

/// Full precision; a failed op makes a latency +inf, which JSON cannot
/// carry, so it prints as the largest double.
std::string number(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1.7976931348623157e308 : 0.0;
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out_dir;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_workload || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    usage();
    return 2;
  }

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("run_record %s\n", result.run_record_json.c_str());
  if (options.trace && !out_dir.empty()) {
    const std::string path = out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace.json";
    std::ofstream dump(path);
    dump << "{\"run_record\": " << result.run_record_json
         << ",\n\"trace\": " << result.spans_json << "}\n";
    std::printf("span dump: %s\n", path.c_str());
  }
  std::printf("%-52s %22s %-12s %s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-52s %22.6f %-12s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const perfbench::Metric& m : result.printed) {
    std::printf("%-52s %22.6f %-12s %zu (printed only, no bound)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  for (const std::string& error : result.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  std::printf("error_rate %.6g (%llu failed or wrong of %llu attempted)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted ? result.attempted : 1),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
