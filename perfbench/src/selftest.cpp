// Self-test of the benchmark's own code: the percentile rule, the result
// checker (it must reject corrupted copies of a correct result), and a
// short small-scale run of every workload that must finish with no failed
// op. Exits 0 when every check passes.
//
//   perfbench_selftest --work-dir DIR
#include <cstdio>
#include <filesystem>
#include <string>

#include "checker.hpp"
#include "core/linearize.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

void test_percentiles() {
  using namespace perfbench;
  expect(samples_needed(99) == 1000, "p99 needs 1000 samples");
  expect(samples_needed(95) == 200, "p95 needs 200 samples");
  expect(samples_needed(50) == 20, "p50 needs 20 samples");
  expect(percentile_supported(1000, 99) && !percentile_supported(999, 99),
         "p99 supported from 1000 samples, not 999");
  expect(percentile_supported(200, 95) && !percentile_supported(199, 95),
         "p95 supported from 200 samples, not 199");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(percentile(ramp, 99) == 990.0, "p99 of 1..1000 is 990");
  expect(percentile(ramp, 50) == 500.0, "p50 of 1..1000 is 500");
  expect(1000 - percentile_rank(1000, 99) == kMinTailSamples,
         "ten samples lie beyond p99 of 1000");
}

void test_checker() {
  using namespace artsparse;
  using namespace perfbench;
  const Shape shape{16, 16};
  CoordBuffer data(2);
  for (index_t r = 0; r < 16; ++r) {
    for (index_t c = (r % 3); c < 16; c += 3) data.append({r, c});
  }
  const Reference reference(data, shape);
  const Box box({2, 3}, {9, 12});

  // A correct scan result, built from the dataset directly.
  ReadResult good;
  good.coords = CoordBuffer(2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!box.contains(data.point(i))) continue;
    good.coords.append(data.point(i));
    good.values.push_back(static_cast<value_t>(linearize(data.point(i), shape)));
  }
  expect(check_scan(good, box, reference).empty(), "correct scan accepted");

  ReadResult dup = good;  // duplicates before consolidation are legal
  dup.coords = CoordBuffer(2);
  dup.values.clear();
  for (std::size_t i = 0; i < good.coords.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      dup.coords.append(good.coords.point(i));
      dup.values.push_back(good.values[i]);
    }
  }
  expect(check_scan(dup, box, reference).empty(),
         "adjacent duplicates accepted");

  ReadResult wrong_value = good;
  wrong_value.values[3] += 1.0;
  expect(!check_scan(wrong_value, box, reference).empty(),
         "corrupted value rejected");

  ReadResult missing = good;
  missing.values.pop_back();
  std::vector<index_t> flat(missing.coords.flat().begin(),
                            missing.coords.flat().end() - 2);
  missing.coords = CoordBuffer(2, flat);
  expect(!check_scan(missing, box, reference).empty(),
         "dropped point rejected");

  ReadResult unsorted = good;
  std::vector<index_t> swapped(good.coords.flat().begin(),
                               good.coords.flat().end());
  std::swap(swapped[0], swapped[2]);
  std::swap(swapped[1], swapped[3]);
  std::swap(unsorted.values[0], unsorted.values[1]);
  unsorted.coords = CoordBuffer(2, swapped);
  expect(!check_scan(unsorted, box, reference).empty(),
         "out-of-order result rejected");

  ReadResult outside = good;
  outside.coords.append({15, 15});
  outside.values.push_back(static_cast<value_t>(15 * 16 + 15));
  expect(!check_scan(outside, box, reference).empty(),
         "point outside the box rejected");

  // Lookups: a query set mixing present and absent cells.
  CoordBuffer queries(2);
  queries.append({0, 0});
  queries.append({0, 1});
  queries.append({5, 2});
  queries.append({5, 2});
  ReadResult lookup;
  lookup.coords = CoordBuffer(2);
  lookup.coords.append({0, 0});
  lookup.values.push_back(0.0);
  lookup.coords.append({5, 2});
  lookup.values.push_back(5 * 16 + 2);
  expect(check_lookup(lookup, queries, reference).empty(),
         "correct lookup accepted");
  ReadResult extra = lookup;
  extra.coords.append({6, 0});
  extra.values.push_back(6 * 16);
  expect(!check_lookup(extra, queries, reference).empty(),
         "lookup answer outside the query set rejected");
  ReadResult short_lookup;
  short_lookup.coords = CoordBuffer(2);
  short_lookup.coords.append({0, 0});
  short_lookup.values.push_back(0.0);
  expect(!check_lookup(short_lookup, queries, reference).empty(),
         "lookup missing a stored point rejected");
}

void test_workloads(const std::filesystem::path& work_dir) {
  for (const std::string& name : perfbench::workload_names()) {
    for (bool trace : {false, true}) {
      perfbench::RunOptions options;
      options.workload = name;
      options.seed = 7;
      options.seconds = 0.5;
      options.trace = trace;
      options.small = true;
      options.work_dir = work_dir / name;
      const perfbench::RunResult result = perfbench::run_workload(options);
      for (const std::string& error : result.errors) {
        std::printf("     %s\n", error.c_str());
      }
      expect(result.attempted > 0 && result.failed == 0 &&
                 !result.metrics.empty(),
             name + (trace ? " traced" : "") + " short run: " +
                 std::to_string(result.attempted) + " ops, error_rate 0");
      std::filesystem::remove_all(options.work_dir);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--work-dir") {
    std::fprintf(stderr, "usage: perfbench_selftest --work-dir DIR\n");
    return 2;
  }
  test_percentiles();
  test_checker();
  test_workloads(argv[2]);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
