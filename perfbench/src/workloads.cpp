#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checker.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "formats/registry.hpp"
#include "patterns/dataset.hpp"
#include "procstat.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment.hpp"

namespace perfbench {

namespace {

using namespace artsparse;

enum class Traffic { kScan, kLookup, kMixed };

struct Spec {
  Traffic traffic = Traffic::kScan;
  Shape shape;
  std::size_t bands = 0;        ///< fragments at load, split along dim 0
  std::vector<OrgKind> orgs;    ///< round-robin over the bands / writes
  std::size_t cache_bytes = 0;  ///< FragmentCache budget
  std::size_t readers = 0;
  std::size_t setups = 0;       ///< setups per run; setup_s is their median
};

constexpr std::size_t kLookupQueries = 512;
constexpr std::size_t kConsolidateEvery = 16;
/// Bounded tail percentiles. Read p99 is printed too, but not bounded: on a
/// shared host it moves by a third between runs of the same code.
constexpr double kReadPercentile = 95.0;
constexpr double kReadPrintedPercentile = 99.0;
constexpr double kWritePercentile = 95.0;
/// The timed window runs as closed-loop episodes of this length, after
/// one episode of warm-up. A batch leader that keeps draining the queue
/// holds its own caller until the queue empties, which under steady
/// closed-loop load can be the whole run; run to run, that flips the
/// number of circulating clients between 4 and 3. Episodes end such a
/// stall within a second (the held op is still measured), so each run
/// averages over many episodes instead of sitting in one state.
constexpr double kEpisodeS = 1.0;
/// CPU steal share above which an episode counts as disturbed by the host.
constexpr double kQuietSteal = 0.02;
/// How far a noisy run may extend its timed window, as a multiple.
constexpr double kMaxExtension = 1.5;
/// Ops of each kind the traced run replays layer by layer.
constexpr std::size_t kReplaySample = 48;
constexpr double kFill = 0.01;  // the paper's GSP threshold, Table II

const std::vector<OrgKind> kPaperOrgList(std::begin(kPaperOrgs),
                                         std::end(kPaperOrgs));
/// Orgs with per-org metrics: the paper's five plus sorted COO.
const std::vector<OrgKind> kMeasuredOrgs = {
    OrgKind::kCoo, OrgKind::kLinear, OrgKind::kGcsr,
    OrgKind::kGcsc, OrgKind::kCsf,   OrgKind::kSortedCoo};

/// Setup counts give the quieter half of the setups enough load writes for
/// write_p95_ms (>= 200) on the read-only workloads: 7 x 32 and 6 x 64.
Spec spec_for(const std::string& name, bool small) {
  Spec spec;
  if (name == "scan-hot") {
    spec = {Traffic::kScan, small ? Shape{512, 512} : Shape{8192, 8192}, 32,
            kPaperOrgList, FragmentCache::kDefaultBudgetBytes, 4,
            small ? 1u : 13u};
  } else if (name == "lookup-cold") {
    // LINEAR and COO answer a lookup by scanning the whole fragment; they
    // would swamp every other layer, so the store uses the sorted orgs.
    spec = {Traffic::kLookup,
            small ? Shape{64, 64, 64} : Shape{512, 512, 512},
            64,
            {OrgKind::kGcsr, OrgKind::kGcsc, OrgKind::kCsf,
             OrgKind::kSortedCoo},
            small ? std::size_t{64} << 10 : std::size_t{4} << 20,
            4,
            small ? 1u : 12u};
  } else if (name == "mixed-rw") {
    spec = {Traffic::kMixed, small ? Shape{512, 512} : Shape{4096, 4096}, 16,
            kPaperOrgList, FragmentCache::kDefaultBudgetBytes, 3,
            small ? 1u : 3u};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::string org_slug(OrgKind org) {
  switch (org) {
    case OrgKind::kCoo: return "coo";
    case OrgKind::kLinear: return "linear";
    case OrgKind::kGcsr: return "gcsr";
    case OrgKind::kGcsc: return "gcsc";
    case OrgKind::kCsf: return "csf";
    case OrgKind::kSortedCoo: return "sorted_coo";
    case OrgKind::kBcsr: return "bcsr";
  }
  return "unknown";
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Share of machine CPU time stolen by the hypervisor between two samples.
double steal_share(const HostCpuSample& before, const HostCpuSample& after) {
  const auto ticks = static_cast<double>(after.total - before.total);
  return ticks > 0 ? static_cast<double>(after.steal - before.steal) / ticks
                   : 0.0;
}

/// Indices of the ceil(n/2) entries with the least steal, in index order.
/// Timed numbers are kept from these only: the choice follows the host's
/// noise, never the measured values, so on a quiet host it is a random
/// half and costs nothing but samples.
std::vector<std::size_t> quieter_half(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  order.resize((order.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mixer(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return mixer.next();
}

/// One row band of the dataset: the unit the load and the writer write.
struct Band {
  CoordBuffer coords;
  std::vector<value_t> values;
  std::size_t payload_bytes() const {
    return values.size() * sizeof(value_t) +
           coords.size() * coords.rank() * sizeof(index_t);
  }
};

/// Splits a row-major dataset into `count` bands along dimension 0.
std::vector<Band> split_bands(const SparseDataset& data, std::size_t count) {
  const index_t rows = data.shape.extent(0);
  const std::size_t rank = data.shape.rank();
  std::vector<Band> bands(count);
  std::size_t point = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const index_t end_row = rows * (b + 1) / count;
    Band& band = bands[b];
    band.coords = CoordBuffer(rank);
    while (point < data.coords.size() && data.coords.at(point, 0) < end_row) {
      band.coords.append(data.coords.point(point));
      band.values.push_back(data.values[point]);
      ++point;
    }
  }
  return bands;
}

/// An m/10 box at a uniform position.
Box random_box(const Shape& shape, Xoshiro256& rng) {
  std::vector<index_t> lo(shape.rank()), hi(shape.rank());
  for (std::size_t d = 0; d < shape.rank(); ++d) {
    const index_t size = std::max<index_t>(1, shape.extent(d) / 10);
    lo[d] = rng.next_below(shape.extent(d) - size + 1);
    hi[d] = lo[d] + size - 1;
  }
  return Box(std::move(lo), std::move(hi));
}

/// The point queries of one lookup op: uniform cells inside `box`.
CoordBuffer lookup_queries(const Box& box, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CoordBuffer queries(box.rank());
  queries.reserve(kLookupQueries);
  std::vector<index_t> point(box.rank());
  for (std::size_t q = 0; q < kLookupQueries; ++q) {
    for (std::size_t d = 0; d < box.rank(); ++d) {
      point[d] = box.lo(d) + rng.next_below(box.hi(d) - box.lo(d) + 1);
    }
    queries.append(point);
  }
  return queries;
}

enum class OpKind { kScan, kLookup, kWrite, kConsolidate };

struct OpRecord {
  OpKind kind = OpKind::kScan;
  std::uint64_t id = 0;
  Box box;                      ///< scan and lookup
  std::uint64_t query_seed = 0; ///< lookup
  std::size_t band = 0;         ///< write
  OrgKind org = OrgKind::kCoo;  ///< write
  double seconds = 0.0;
  bool ok = false;
  std::size_t fragments = 0;
  ReadBreakdown read_times;
  WriteResult write;
  std::size_t payload_bytes = 0;  ///< write: user bytes sent
};

bool is_read(const OpRecord& op) {
  return op.kind == OpKind::kScan || op.kind == OpKind::kLookup;
}

/// One store with its cache and service; removes its directory when
/// destroyed.
struct StoreUnderTest {
  std::filesystem::path dir;
  std::shared_ptr<FragmentCache> cache;
  std::unique_ptr<FragmentStore> store;
  std::unique_ptr<Service> service;

  StoreUnderTest(std::filesystem::path directory, const Shape& shape,
                 std::size_t cache_bytes)
      : dir(std::move(directory)) {
    std::filesystem::remove_all(dir);
    cache = std::make_shared<FragmentCache>(cache_bytes);
    store = std::make_unique<FragmentStore>(dir, shape,
                                            DeviceModel::unthrottled(),
                                            CodecKind::kIdentity, cache);
    service = std::make_unique<Service>(*store, TenantQuota{});
  }
  ~StoreUnderTest() {
    service.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  StoreUnderTest(const StoreUnderTest&) = delete;
  StoreUnderTest& operator=(const StoreUnderTest&) = delete;
};

/// Counters of one timed window, taken around it.
struct Window {
  std::vector<OpRecord> ops;
  double wall = 0.0;  ///< of the kept episodes
  std::vector<double> store_bytes;  ///< total_file_bytes after each write
  CpuSample cpu_before, cpu_after;
  IoSample io_before, io_after;
  CacheStats cache_before, cache_after;
  BatchStats batch_before, batch_after;
  int threads_peak = 0;
};

class Runner {
 public:
  Runner(const RunOptions& options, Spec spec)
      : options_(options), spec_(std::move(spec)) {}

  RunResult run();

 private:
  void fail(const std::string& what);
  void check(OpRecord& op, const std::string& error);

  void setup(std::size_t index);
  OpRecord timed_write(Session& session, std::size_t band, OrgKind org,
                       SpanLog* log);
  double warm(Session& session);
  OpRecord read_op(Session& session, Xoshiro256& rng, SpanLog* log);
  Window run_window(double seconds, std::uint64_t stream, SpanLog* log);
  OpRecord consolidate(SpanLog* log);
  void verify_final();

  std::vector<Metric> end_to_end(const Window& window,
                                 std::vector<Metric>& printed) const;
  std::vector<Metric> per_layer(const Window& untraced, const Window& traced,
                                SpanLog& log);
  void replay(const Window& window, SpanLog& log);
  std::string run_record() const;

  const RunOptions& options_;
  const Spec spec_;

  std::optional<Reference> reference_;
  std::vector<Band> bands_;
  std::unique_ptr<StoreUnderTest> store_;
  std::vector<double> setup_seconds_;
  std::vector<std::vector<OpRecord>> load_ops_;  ///< per setup
  std::vector<double> setup_steal_;              ///< per setup
  IoSample load_io_before_, load_io_after_;      ///< last setup's load
  double steal_share_ = 0.0;  ///< over the last timed window
  std::atomic<std::uint64_t> next_op_id_{0};

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex errors_mutex_;
  std::vector<std::string> errors_;

  /// Replay accumulators (traced run).
  struct ReplayTotals {
    double read_snapshot_1t = 0.0;  ///< whole Snapshot op, one thread
    double read_merge_1t = 0.0;     ///< its ReadBreakdown::merge
    double read_layers = 0.0;       ///< discover + cache gets + format calls
    double write_snapshot_1t = 0.0;
    double write_layers = 0.0;      ///< build + reorg + encode + commit
    std::vector<double> scan_overhead, read_overhead;
  } replay_;
};

void Runner::fail(const std::string& what) {
  failed_.fetch_add(1);
  const std::lock_guard lock(errors_mutex_);
  if (errors_.size() < 8) errors_.push_back(what);
}

void Runner::check(OpRecord& op, const std::string& error) {
  op.ok = error.empty();
  if (!op.ok) fail("op " + std::to_string(op.id) + ": " + error);
}

OpRecord Runner::timed_write(Session& session, std::size_t band, OrgKind org,
                             SpanLog* log) {
  OpRecord op;
  op.kind = OpKind::kWrite;
  op.id = next_op_id_.fetch_add(1) + 1;
  op.band = band;
  op.org = org;
  op.payload_bytes = bands_[band].payload_bytes();
  attempted_.fetch_add(1);
  ScopedSpan span(log, "service.write", 0, op.id);
  const auto start = Clock::now();
  try {
    op.write = session.write(bands_[band].coords, bands_[band].values, org);
    op.seconds = seconds_since(start);
    span.end();
    check(op, op.write.point_count == bands_[band].values.size()
                  ? ""
                  : "write stored " + std::to_string(op.write.point_count) +
                        " points");
  } catch (const std::exception& e) {
    op.seconds = seconds_since(start);
    fail("write op " + std::to_string(op.id) + ": " + e.what());
  }
  return op;
}

/// Warms the cache; returns the seconds spent inside Session calls, so
/// result checks stay out of setup_s.
double Runner::warm(Session& session) {
  if (spec_.traffic == Traffic::kLookup) {
    // Fill the small cache the way traffic would.
    Xoshiro256 rng(mix_seed(options_.seed, 0xfeed));
    double seconds = 0.0;
    for (int i = 0; i < 16; ++i) seconds += read_op(session, rng, nullptr).seconds;
    return seconds;
  }
  // Whole-store scan: every fragment lands in the cache before timing.
  OpRecord op;
  op.box = Box::whole(spec_.shape);
  attempted_.fetch_add(1);
  const auto start = Clock::now();
  try {
    const ReadResult result = session.scan(op.box);
    op.seconds = seconds_since(start);
    check(op, check_scan(result, op.box, *reference_));
  } catch (const std::exception& e) {
    op.seconds = seconds_since(start);
    fail(std::string("warm scan: ") + e.what());
  }
  return op.seconds;
}

void Runner::setup(std::size_t index) {
  // Timed: generate + split, then load + warm; building the reference is
  // the benchmark's own work and stays outside.
  const HostCpuSample host_before = sample_host_cpu();
  auto start = Clock::now();
  SparseDataset data = make_dataset(spec_.shape, GspConfig{kFill},
                                    options_.seed, ValueKind::kAddress);
  bands_ = split_bands(data, spec_.bands);
  double elapsed = seconds_since(start);
  if (!reference_) reference_.emplace(data.coords, spec_.shape);
  data = SparseDataset{};

  store_.reset();
  start = Clock::now();
  store_ = std::make_unique<StoreUnderTest>(
      options_.work_dir / ("store" + std::to_string(index)), spec_.shape,
      spec_.cache_bytes);
  Session session = store_->service->session("load");
  std::vector<OpRecord>& writes = load_ops_.emplace_back();
  load_io_before_ = sample_io();
  for (std::size_t b = 0; b < bands_.size(); ++b) {
    writes.push_back(
        timed_write(session, b, spec_.orgs[b % spec_.orgs.size()], nullptr));
  }
  load_io_after_ = sample_io();
  elapsed += seconds_since(start);
  elapsed += warm(session);
  setup_seconds_.push_back(elapsed);
  setup_steal_.push_back(steal_share(host_before, sample_host_cpu()));
}

OpRecord Runner::read_op(Session& session, Xoshiro256& rng, SpanLog* log) {
  OpRecord op;
  op.kind = spec_.traffic == Traffic::kLookup ? OpKind::kLookup
                                              : OpKind::kScan;
  op.id = next_op_id_.fetch_add(1) + 1;
  op.box = random_box(spec_.shape, rng);
  attempted_.fetch_add(1);
  CoordBuffer queries;
  if (op.kind == OpKind::kLookup) {
    op.query_seed = rng.next();
    queries = lookup_queries(op.box, op.query_seed);
  }
  ScopedSpan span(log, op.kind == OpKind::kLookup ? "service.read"
                                                  : "service.scan",
                  0, op.id);
  const auto start = Clock::now();
  try {
    const ReadResult result = op.kind == OpKind::kLookup
                                  ? session.read(queries)
                                  : session.scan(op.box);
    op.seconds = seconds_since(start);
    span.end();
    op.read_times = result.times;
    op.fragments = result.fragments_visited;
    check(op, op.kind == OpKind::kLookup
                  ? check_lookup(result, queries, *reference_)
                  : check_scan(result, op.box, *reference_));
  } catch (const std::exception& e) {
    op.seconds = seconds_since(start);
    fail("read op " + std::to_string(op.id) + ": " + e.what());
  }
  return op;
}

Window Runner::run_window(double seconds, std::uint64_t stream,
                          SpanLog* log) {
  struct Episode {
    std::vector<OpRecord> ops;
    std::vector<double> store_bytes;
    double wall = 0.0;
    double steal = 0.0;  ///< CPU steal share while it ran
  };
  Window window;
  Service& service = *store_->service;
  FragmentStore& store = *store_->store;
  const bool mixed = spec_.traffic == Traffic::kMixed;
  const double episode_s = options_.small ? 0.1 : kEpisodeS;
  // Runs until `seconds` are measured and the kept episodes hold the
  // samples the percentiles need; the hard stop bounds a pathologically
  // slow build.
  const std::size_t min_reads =
      options_.small ? 1 : samples_needed(kReadPrintedPercentile);
  const std::size_t min_writes =
      options_.small || !mixed ? 0 : samples_needed(kWritePercentile);
  const double hard_stop_s = std::max(3.0 * seconds, seconds + 30.0);
  // Timed runs keep the half of the episodes with the least CPU steal;
  // a traced run keeps all, since its counters span the whole window.
  const bool keep_quiet_half = !options_.trace && !options_.small;
  std::vector<Episode> episodes;
  auto kept = [&] {
    std::vector<double> steal;
    for (const Episode& e : episodes) steal.push_back(e.steal);
    if (keep_quiet_half) return quieter_half(steal);
    std::vector<std::size_t> all(episodes.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  };
  auto enough = [&] {
    double wall = 0.0;
    for (const Episode& e : episodes) wall += e.wall;
    std::size_t reads = 0, writes = 0;
    double worst_steal = 0.0;
    for (std::size_t i : kept()) {
      worst_steal = std::max(worst_steal, episodes[i].steal);
      for (const OpRecord& op : episodes[i].ops) {
        reads += is_read(op) ? 1 : 0;
        writes += op.kind == OpKind::kWrite ? 1 : 0;
      }
    }
    if (wall >= hard_stop_s) return true;
    if (wall < seconds || reads < min_reads || writes < min_writes) {
      return false;
    }
    // On a noisy host, run up to half as long again while a kept episode
    // still lost more than kQuietSteal of the CPU.
    return !keep_quiet_half || worst_steal <= kQuietSteal ||
           wall >= kMaxExtension * seconds;
  };

  std::vector<Xoshiro256> rngs;
  for (std::size_t c = 0; c < spec_.readers; ++c) {
    rngs.emplace_back(mix_seed(options_.seed, stream * 64 + c));
  }
  std::size_t writes_issued = 0;  ///< drives band, org and consolidation
  std::optional<ThreadPeakSampler> sampler;

  // Episode 0 is the warm-up: same load, nothing recorded.
  for (bool measured = false; !measured || !enough(); measured = true) {
    if (measured && episodes.empty()) {
      window.cpu_before = sample_cpu();
      window.io_before = sample_io();
      window.cache_before = store_->cache->stats();
      window.batch_before = service.batch_stats();
      if (log != nullptr) sampler.emplace();
    }
    SpanLog* episode_log = measured ? log : nullptr;
    Episode episode;
    std::vector<std::vector<OpRecord>> per_thread(spec_.readers + 1);
    const HostCpuSample host_before = sample_host_cpu();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(episode_s));
    auto reader = [&](std::size_t client) {
      Session session = service.session("reader");
      while (Clock::now() < end) {
        per_thread[client].push_back(
            read_op(session, rngs[client], episode_log));
      }
    };
    auto writer = [&] {
      Session session = service.session("writer");
      std::vector<OpRecord>& mine = per_thread[spec_.readers];
      while (Clock::now() < end) {
        // Same cells and values as the band already holds, so the
        // reference never changes; the org rotates over the paper's five.
        const std::size_t w = writes_issued++;
        mine.push_back(timed_write(session, w % bands_.size(),
                                   kPaperOrgList[w % kPaperOrgList.size()],
                                   episode_log));
        episode.store_bytes.push_back(
            static_cast<double>(store.total_file_bytes()));
        if ((w + 1) % kConsolidateEvery == 0) {
          mine.push_back(consolidate(episode_log));
        }
      }
    };
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < spec_.readers; ++c) {
        threads.emplace_back(reader, c);
      }
      if (mixed) threads.emplace_back(writer);
    }
    if (!measured) continue;
    episode.wall = seconds_since(start);
    episode.steal = steal_share(host_before, sample_host_cpu());
    for (auto& ops : per_thread) {
      episode.ops.insert(episode.ops.end(), ops.begin(), ops.end());
    }
    episodes.push_back(std::move(episode));
  }
  window.cpu_after = sample_cpu();
  window.io_after = sample_io();
  window.cache_after = store_->cache->stats();
  window.batch_after = service.batch_stats();
  if (sampler) window.threads_peak = sampler->peak();

  double steal_wall = 0.0;
  for (const Episode& e : episodes) steal_wall += e.steal * e.wall;
  for (std::size_t i : kept()) {
    Episode& e = episodes[i];
    window.wall += e.wall;
    window.ops.insert(window.ops.end(), e.ops.begin(), e.ops.end());
    window.store_bytes.insert(window.store_bytes.end(), e.store_bytes.begin(),
                              e.store_bytes.end());
  }
  double total_wall = 0.0;
  for (const Episode& e : episodes) total_wall += e.wall;
  steal_share_ = total_wall > 0 ? steal_wall / total_wall : 0.0;
  std::sort(window.ops.begin(), window.ops.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.id < b.id; });
  return window;
}

OpRecord Runner::consolidate(SpanLog* log) {
  OpRecord op;
  op.kind = OpKind::kConsolidate;
  op.id = next_op_id_.fetch_add(1) + 1;
  attempted_.fetch_add(1);
  ScopedSpan span(log, "storage.consolidate", 0, op.id);
  const auto start = Clock::now();
  try {
    const WriteResult merged = store_->store->consolidate(OrgKind::kGcsr);
    op.seconds = seconds_since(start);
    span.end();
    check(op, merged.point_count == reference_->size()
                  ? ""
                  : "consolidate kept " + std::to_string(merged.point_count) +
                        " points");
  } catch (const std::exception& e) {
    op.seconds = seconds_since(start);
    fail(std::string("consolidate: ") + e.what());
  }
  return op;
}

void Runner::verify_final() {
  // Every write and consolidation, read back in one whole-store scan.
  Session session = store_->service->session("verify");
  const Box whole = Box::whole(spec_.shape);
  attempted_.fetch_add(1);
  try {
    const std::string error =
        check_scan(session.scan(whole), whole, *reference_);
    if (!error.empty()) fail("final whole-store scan: " + error);
  } catch (const std::exception& e) {
    fail(std::string("final whole-store scan: ") + e.what());
  }
}

/// Latency samples of `ops`, with a failed op counting as a miss of every
/// latency limit (+inf).
std::vector<double> latencies_ms(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops) {
    out.push_back(op.ok ? op.seconds * 1e3
                        : std::numeric_limits<double>::infinity());
  }
  return out;
}

template <typename Pred>
std::vector<OpRecord> select(const std::vector<OpRecord>& ops, Pred pred) {
  std::vector<OpRecord> out;
  std::copy_if(ops.begin(), ops.end(), std::back_inserter(out), pred);
  return out;
}

std::vector<Metric> Runner::end_to_end(const Window& window,
                                       std::vector<Metric>& printed) const {
  std::vector<Metric> out;
  out.push_back({"setup_s", percentile(setup_seconds_, 50), "s",
                 setup_seconds_.size()});

  const std::vector<OpRecord> reads = select(window.ops, is_read);
  const std::vector<double> read_ms = latencies_ms(reads);
  out.push_back({"read_p50_ms", percentile(read_ms, 50), "ms", reads.size()});
  out.push_back({"read_p95_ms", percentile(read_ms, kReadPercentile), "ms",
                 reads.size()});
  printed.push_back({"read_p99_ms", percentile(read_ms, kReadPrintedPercentile),
                     "ms", reads.size()});
  out.push_back({"read_ops_s",
                 static_cast<double>(reads.size()) / window.wall, "1/s",
                 reads.size()});

  // Writes: the timed writer on mixed-rw; elsewhere the load writes of
  // the quieter half of the setups, the only writes those workloads make.
  const bool mixed = spec_.traffic == Traffic::kMixed;
  std::vector<OpRecord> writes;
  if (mixed) {
    writes = select(window.ops, [](const OpRecord& op) {
      return op.kind == OpKind::kWrite;
    });
  } else {
    for (std::size_t i : quieter_half(setup_steal_)) {
      writes.insert(writes.end(), load_ops_[i].begin(), load_ops_[i].end());
    }
  }
  const std::vector<double> write_ms = latencies_ms(writes);
  out.push_back(
      {"write_p50_ms", percentile(write_ms, 50), "ms", writes.size()});
  out.push_back({"write_p95_ms", percentile(write_ms, kWritePercentile), "ms",
                 writes.size()});
  double points = 0.0;
  double busy = 0.0;
  for (const OpRecord& op : writes) {
    if (op.ok) points += static_cast<double>(op.write.point_count);
    busy += op.seconds;
  }
  // mixed-rw: the writer's wall time, which includes consolidation.
  if (mixed) busy = window.wall;
  out.push_back({"ingest_points_s", busy > 0 ? points / busy : 0.0,
                 "points/s", writes.size()});

  // Space: time-averaged over the writer's churn on mixed-rw (1 to 17
  // fragments between consolidations), the loaded store elsewhere.
  const double stored =
      mixed ? percentile(window.store_bytes, 50)
            : static_cast<double>(store_->store->total_file_bytes());
  out.push_back({"store_bytes_per_point",
                 stored / static_cast<double>(reference_->size()), "B/point",
                 mixed ? window.store_bytes.size() : 1});
  out.push_back({"peak_rss_mb", peak_rss_mib(), "MiB", 0});
  return out;
}

RunResult Runner::run() {
  std::filesystem::create_directories(options_.work_dir);
  for (std::size_t i = 0; i < spec_.setups; ++i) setup(i);

  RunResult result;
  if (!options_.trace) {
    const Window window = run_window(options_.seconds, 1, nullptr);
    // Before the final check, whose whole-store scan is not workload.
    result.metrics = end_to_end(window, result.printed);
    verify_final();
  } else {
    // Untraced then traced halves, so trace.overhead compares the two.
    const Window untraced = run_window(options_.seconds / 2, 1, nullptr);
    SpanLog log;
    const Window traced = run_window(options_.seconds / 2, 2, &log);
    result.metrics = per_layer(untraced, traced, log);
    verify_final();
    std::ostringstream spans;
    log.write_json(spans);
    result.spans_json = spans.str();
  }
  store_.reset();
  result.attempted = attempted_.load();
  result.failed = failed_.load();
  result.errors = errors_;
  result.run_record_json = run_record();
  return result;
}

/// Forces the library's fan-out to one thread while alive, so a replayed
/// Snapshot op and the sum of its layers are both serial. Created only
/// while the benchmark runs no other thread (setenv is not thread-safe).
class SingleThreaded {
 public:
  SingleThreaded() {
    const char* previous = std::getenv("ARTSPARSE_THREADS");
    if (previous != nullptr) saved_ = previous;
    setenv("ARTSPARSE_THREADS", "1", 1);
  }
  ~SingleThreaded() {
    if (saved_) {
      setenv("ARTSPARSE_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("ARTSPARSE_THREADS");
    }
  }
  SingleThreaded(const SingleThreaded&) = delete;
  SingleThreaded& operator=(const SingleThreaded&) = delete;

 private:
  std::optional<std::string> saved_;
};

void Runner::replay(const Window& window, SpanLog& log) {
  Xoshiro256 rng(mix_seed(options_.seed, 0x5eed));
  auto sample = [&](std::vector<OpRecord> ops) {
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.next_below(i)]);
    }
    if (ops.size() > kReplaySample) ops.resize(kReplaySample);
    std::sort(ops.begin(), ops.end(),
              [](const OpRecord& a, const OpRecord& b) { return a.id < b.id; });
    return ops;
  };
  const std::vector<OpRecord> reads = sample(select(
      window.ops, [](const OpRecord& op) { return is_read(op) && op.ok; }));
  const bool mixed = spec_.traffic == Traffic::kMixed;
  const std::vector<OpRecord> writes = sample(select(
      mixed ? window.ops : load_ops_.back(), [](const OpRecord& op) {
        return op.kind == OpKind::kWrite && op.ok;
      }));

  const Snapshot snapshot = store_->store->snapshot();
  FragmentCache& cache = snapshot.cache();
  const DeviceModel device = DeviceModel::unthrottled();
  const std::size_t rank = spec_.shape.rank();

  for (const OpRecord& op : reads) {
    const bool lookup = op.kind == OpKind::kLookup;
    const CoordBuffer queries =
        lookup ? lookup_queries(op.box, op.query_seed) : CoordBuffer(rank);
    {
      ScopedSpan admit(&log, "service.admission.admit", 0, op.id);
      const Ticket ticket = store_->service->admission().admit("replay");
    }

    // Layer by layer, in the order the Snapshot op runs them, on one
    // thread like the whole-op base below.
    std::optional<SingleThreaded> serial(std::in_place);
    std::vector<std::string> missed;
    ScopedSpan root(&log, lookup ? "replay.read" : "replay.scan", 0, op.id);
    std::vector<const ManifestEntry*> hits;
    {
      ScopedSpan span(&log, "storage.manifest.discover", root.id(), op.id);
      hits = snapshot.manifest().discover(lookup ? Box::bounding(queries)
                                                 : op.box);
      span.set_amount(static_cast<double>(hits.size()));
      replay_.read_layers += span.end();
    }
    for (const ManifestEntry* entry : hits) {
      FragmentCache::Lookup found;
      {
        ScopedSpan span(&log, "storage.cache.get", root.id(), op.id);
        found = cache.get(entry->cache_key, entry->path(), device);
        span.rename(found.hit ? "storage.cache.get_hit"
                              : "storage.cache.get_miss");
        span.set_amount(static_cast<double>(entry->file_bytes));
        replay_.read_layers += span.end();
      }
      if (!found.hit) {
        // What the miss inside get() did, once more piece by piece. Kept
        // under its own parent: it is attribution, not part of the op.
        missed.push_back(entry->cache_key);
        ScopedSpan breakdown(&log, "replay.miss_breakdown", root.id(), op.id);
        Bytes raw;
        {
          ScopedSpan span(&log, "storage.file_io.read_file", breakdown.id(),
                          op.id);
          raw = read_file(entry->path());
          span.set_amount(static_cast<double>(raw.size()));
        }
        Fragment fragment;
        {
          ScopedSpan span(&log, "storage.fragment.decode", breakdown.id(),
                          op.id);
          fragment = decode_fragment(raw);
          span.set_amount(static_cast<double>(raw.size()));
        }
        {
          ScopedSpan span(&log, "formats.load", breakdown.id(), op.id);
          load_format(fragment.org, fragment.index);
          span.set_amount(static_cast<double>(fragment.index.size()));
        }
      }
      const OpenFragment& fragment = *found.fragment;
      const std::string org = org_slug(fragment.org);
      if (lookup) {
        ScopedSpan span(&log, "formats." + org + ".read", root.id(), op.id);
        fragment.format->read(queries);
        span.set_amount(static_cast<double>(queries.size()));
        replay_.read_layers += span.end();
      } else {
        ScopedSpan span(&log, "formats." + org + ".scan_box", root.id(),
                        op.id);
        CoordBuffer points(rank);
        std::vector<std::size_t> slots;
        fragment.format->scan_box(op.box, points, slots);
        span.set_amount(static_cast<double>(points.size()));
        replay_.read_layers += span.end();
      }
    }
    root.end();

    // The whole Snapshot op on the same cold set: once on one thread (the
    // base the layers are compared against), once with the default
    // fan-out (the base of the service overhead).
    auto run_whole = [&] {
      return lookup ? snapshot.read(queries) : snapshot.scan_region(op.box);
    };
    for (const std::string& key : missed) cache.invalidate(key);
    {
      ScopedSpan span(&log, "storage.read.snapshot_op_1thread", 0, op.id);
      const ReadResult whole = run_whole();
      replay_.read_merge_1t += whole.times.merge;
      replay_.read_snapshot_1t += span.end();
    }
    serial.reset();
    for (const std::string& key : missed) cache.invalidate(key);
    ScopedSpan span(&log, "storage.read.snapshot_op", 0, op.id);
    run_whole();
    const double alone = span.end();
    (lookup ? replay_.read_overhead : replay_.scan_overhead)
        .push_back((op.seconds - alone) * 1e3);
  }

  // Writes go to a scratch store of their own, so the store under test
  // keeps its fragment set.
  StoreUnderTest scratch(options_.work_dir / "replay", spec_.shape,
                         FragmentCache::kDefaultBudgetBytes);
  const std::string staged = (options_.work_dir / "replay.asf").string();
  for (const OpRecord& op : writes) {
    const Band& band = bands_[op.band];
    const std::string org = org_slug(op.org);
    const SingleThreaded serial;
    ScopedSpan root(&log, "replay.write", 0, op.id);
    std::unique_ptr<SparseFormat> format = make_format(op.org);
    std::vector<std::size_t> map;
    {
      ScopedSpan span(&log, "formats." + org + ".build", root.id(), op.id);
      map = format->build(band.coords, spec_.shape);
      span.set_amount(static_cast<double>(band.values.size()));
      replay_.write_layers += span.end();
    }
    Fragment fragment;
    fragment.org = op.org;
    fragment.shape = spec_.shape;
    fragment.bbox = Box::bounding(band.coords);
    fragment.point_count = band.values.size();
    fragment.values.resize(band.values.size());
    for (std::size_t i = 0; i < map.size(); ++i) {
      fragment.values[map[i]] = band.values[i];
    }
    Bytes encoded;
    {
      ScopedSpan span(&log, "storage.fragment.encode", root.id(), op.id);
      fragment.index = serialize_format(*format);
      encoded = encode_fragment(fragment);
      span.set_amount(static_cast<double>(encoded.size()));
      replay_.write_layers += span.end();
    }
    {
      ScopedSpan span(&log, "storage.file_io.atomic_write", root.id(), op.id);
      atomic_write_file(staged, encoded);
      span.set_amount(static_cast<double>(encoded.size()));
      replay_.write_layers += span.end();
    }
    root.end();
    {
      ScopedSpan span(&log, "storage.write.snapshot_op_1thread", 0, op.id);
      const WriteResult whole =
          scratch.store->write(band.coords, band.values, op.org);
      replay_.write_snapshot_1t += span.end();
      replay_.write_layers += whole.times.reorg;
    }
    scratch.store->clear();
  }
  std::error_code ec;
  std::filesystem::remove(staged, ec);
}

std::vector<Metric> Runner::per_layer(const Window& untraced,
                                      const Window& traced, SpanLog& log) {
  replay(traced, log);
  const std::map<std::string, SpanTotal> totals = log.totals();
  auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotal{} : it->second;
  };
  auto per_call = [&](const std::string& name, double scale) {
    const SpanTotal t = total(name);
    return Metric{name, t.count ? t.seconds * scale / t.count : 0.0, "",
                  t.count};
  };
  auto per_amount = [&](const std::string& name, double scale) {
    const SpanTotal t = total(name);
    return Metric{name, t.amount > 0 ? t.seconds * scale / t.amount : 0.0, "",
                  t.count};
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<Metric> out;
  auto add = [&](Metric metric, const std::string& name,
                 const std::string& unit) {
    metric.name = name;
    metric.unit = unit;
    out.push_back(std::move(metric));
  };

  const std::vector<OpRecord> reads = select(traced.ops, is_read);
  const auto n_reads = static_cast<double>(reads.size());
  const auto n_ops = static_cast<double>(traced.ops.size());
  const bool mixed = spec_.traffic == Traffic::kMixed;
  const std::vector<OpRecord> writes = select(
      mixed ? traced.ops : load_ops_.back(),
      [](const OpRecord& op) { return op.kind == OpKind::kWrite; });

  // service
  // Medians: one op stalled behind a long-lived batch leader would
  // otherwise set the whole number.
  add({"", percentile(replay_.scan_overhead, 50), "",
       replay_.scan_overhead.size()},
      "service.scan.overhead_ms", "ms");
  add({"", percentile(replay_.read_overhead, 50), "",
       replay_.read_overhead.size()},
      "service.read.overhead_ms", "ms");
  const double requests = static_cast<double>(traced.batch_after.requests -
                                              traced.batch_before.requests);
  const double batches = static_cast<double>(traced.batch_after.batches -
                                             traced.batch_before.batches);
  add({"", ratio(requests - batches, requests), "",
       static_cast<std::size_t>(requests)},
      "service.batch.coalesced_ratio", "ratio");
  add({"", ratio(requests, batches), "", static_cast<std::size_t>(batches)},
      "service.batch.mean_size", "requests");
  add(per_call("service.admission.admit", 1e6), "service.admission.admit_us",
      "us");
  double rejected = 0;
  for (const std::string& tenant : store_->service->admission().tenants()) {
    rejected += static_cast<double>(
        store_->service->admission().stats(tenant).rejected());
  }
  add({"", rejected, "", 0}, "service.admission.rejected", "count");

  // core.parallel and the process, seen from the kernel
  add({"", static_cast<double>(traced.threads_peak), "", 0},
      "core.parallel.threads_peak", "threads");
  add({"",
       ratio(static_cast<double>(traced.cpu_after.involuntary_cs -
                                 traced.cpu_before.involuntary_cs),
             n_ops),
       "", traced.ops.size()},
      "process.involuntary_cs_per_op", "cs/op");
  add({"",
       ratio((traced.cpu_after.cpu_seconds - traced.cpu_before.cpu_seconds) *
                 1e3,
             n_ops),
       "", traced.ops.size()},
      "process.cpu_ms_per_op", "ms/op");

  // storage.manifest
  add(per_call("storage.manifest.discover", 1e6),
      "storage.manifest.discover_us", "us");
  double fragments = 0, merge = 0, query = 0;
  for (const OpRecord& op : reads) {
    fragments += static_cast<double>(op.fragments);
    merge += op.read_times.merge;
    query += op.read_times.query;
  }
  add({"", ratio(fragments, n_reads), "", reads.size()},
      "storage.manifest.fragments_per_op", "fragments");

  // storage.cache
  const double hits = static_cast<double>(traced.cache_after.hits -
                                          traced.cache_before.hits);
  const double misses = static_cast<double>(traced.cache_after.misses -
                                            traced.cache_before.misses);
  add({"", ratio(hits, hits + misses), "",
       static_cast<std::size_t>(hits + misses)},
      "storage.cache.hit_ratio", "ratio");
  add({"",
       ratio(static_cast<double>(traced.cache_after.evictions -
                                 traced.cache_before.evictions),
             n_reads),
       "", reads.size()},
      "storage.cache.evictions_per_op", "evictions/op");
  add(per_call("storage.cache.get_miss", 1e3), "storage.cache.get_miss_ms",
      "ms");
  add(per_call("storage.cache.get_hit", 1e6), "storage.cache.get_hit_us",
      "us");
  add({"",
       static_cast<double>(traced.cache_after.invalidations -
                           traced.cache_before.invalidations),
       "", 0},
      "storage.cache.invalidations", "count");

  // storage.file_io and storage.fragment
  constexpr double kMiB = 1024.0 * 1024.0;
  add(per_amount("storage.file_io.read_file", 1e3 * kMiB),
      "storage.file_io.read_ms_per_mb", "ms/MiB");
  add(per_amount("storage.fragment.decode", 1e3 * kMiB),
      "storage.fragment.decode_ms_per_mb", "ms/MiB");
  add(per_amount("formats.load", 1e3 * kMiB), "formats.load_ms_per_mb",
      "ms/MiB");
  add({"",
       ratio(static_cast<double>(traced.io_after.rchar -
                                 traced.io_before.rchar),
             n_reads),
       "", reads.size()},
      "storage.file_io.bytes_read_per_op", "B/op");
  add(per_call("storage.file_io.atomic_write", 1e3),
      "storage.file_io.atomic_write_ms", "ms");
  double payload = 0;
  for (const OpRecord& op : writes) {
    payload += static_cast<double>(op.payload_bytes);
  }
  const IoSample& io_before = mixed ? traced.io_before : load_io_before_;
  const IoSample& io_after = mixed ? traced.io_after : load_io_after_;
  add({"", ratio(static_cast<double>(io_after.wchar - io_before.wchar),
                 payload),
       "", writes.size()},
      "storage.file_io.bytes_written_per_user_byte", "B/B");

  // storage.read, from the ReadBreakdowns the Session ops returned
  add({"", ratio(merge * 1e3, n_reads), "", reads.size()},
      "storage.read.merge_ms", "ms");
  add({"", ratio(query * 1e3, n_reads), "", reads.size()},
      "storage.read.query_ms", "ms");

  // storage.write, from the WriteBreakdowns
  WriteBreakdown sum;
  for (const OpRecord& op : writes) {
    sum.build += op.write.times.build;
    sum.build_sort += op.write.times.build_sort;
    sum.reorg += op.write.times.reorg;
    sum.write += op.write.times.write;
    sum.others += op.write.times.others;
    sum.io_retries += op.write.times.io_retries;
  }
  const auto n_writes = static_cast<double>(writes.size());
  add({"", ratio(sum.build * 1e3, n_writes), "", writes.size()},
      "storage.write.build_ms", "ms");
  add({"", ratio(sum.build_sort * 1e3, n_writes), "", writes.size()},
      "storage.write.build_sort_ms", "ms");
  add({"", ratio(sum.reorg * 1e3, n_writes), "", writes.size()},
      "storage.write.reorg_ms", "ms");
  add({"", ratio(sum.write * 1e3, n_writes), "", writes.size()},
      "storage.write.commit_ms", "ms");
  add({"", ratio(sum.others * 1e3, n_writes), "", writes.size()},
      "storage.write.others_ms", "ms");
  add({"", static_cast<double>(sum.io_retries), "", writes.size()},
      "storage.write.io_retries", "count");
  add(per_call("storage.consolidate", 1e3), "storage.consolidate_ms", "ms");

  // formats.<org>
  for (OrgKind org : kMeasuredOrgs) {
    const std::string slug = org_slug(org);
    add(per_call("formats." + slug + ".scan_box", 1e6),
        "formats." + slug + ".scan_box_us", "us");
    add(per_amount("formats." + slug + ".read", 1e6),
        "formats." + slug + ".read_us_per_query", "us/query");
    add(per_amount("formats." + slug + ".build", 1e9),
        "formats." + slug + ".build_ns_per_point", "ns/point");
    double index_bytes = 0, points = 0;
    std::size_t count = 0;
    for (const OpRecord& op : writes) {
      if (op.org != org || !op.ok) continue;
      index_bytes += static_cast<double>(op.write.index_bytes);
      points += static_cast<double>(op.write.point_count);
      ++count;
    }
    add({"", ratio(index_bytes, points), "", count},
        "formats." + slug + ".index_bytes_per_point", "B/point");
  }

  // The trace itself: its cost, and how much of the op the layers explain.
  const std::vector<double> untraced_ms =
      latencies_ms(select(untraced.ops, is_read));
  const std::vector<double> traced_ms = latencies_ms(reads);
  const double base = percentile(untraced_ms, 50);
  add({"", ratio(percentile(traced_ms, 50) - base, base), "",
       traced_ms.size()},
      "trace.overhead", "ratio");
  const double read_base = replay_.read_snapshot_1t;
  add({"", ratio(replay_.read_layers + replay_.read_merge_1t, read_base), "",
       total("storage.read.snapshot_op_1thread").count},
      "trace.coverage.read", "ratio");
  add({"", ratio(replay_.write_layers, replay_.write_snapshot_1t), "",
       total("storage.write.snapshot_op_1thread").count},
      "trace.coverage.write", "ratio");
  double format_seconds = 0;
  for (const auto& [name, t] : totals) {
    const bool format_call =
        name.rfind("formats.", 0) == 0 &&
        (name.ends_with(".scan_box") || name.ends_with(".read"));
    if (format_call) format_seconds += t.seconds;
  }
  add({"", ratio(total("storage.manifest.discover").seconds, read_base), "",
       0},
      "trace.share.discover", "ratio");
  add({"", ratio(total("storage.cache.get_hit").seconds, read_base), "", 0},
      "trace.share.cache_hit", "ratio");
  add({"", ratio(total("storage.cache.get_miss").seconds, read_base), "", 0},
      "trace.share.miss_load", "ratio");
  add({"", ratio(format_seconds, read_base), "", 0}, "trace.share.format",
      "ratio");
  add({"", ratio(replay_.read_merge_1t, read_base), "", 0},
      "trace.share.merge", "ratio");
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Runner::run_record() const {
  const char* threads_env = std::getenv("ARTSPARSE_THREADS");
  const char* cache_env = std::getenv("ARTSPARSE_CACHE_BYTES");
  std::ostringstream out;
  out << "{\"workload\": \"" << options_.workload << "\""
      << ", \"seed\": " << options_.seed
      << ", \"seconds\": " << options_.seconds
      << ", \"trace\": " << (options_.trace ? "true" : "false")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"worker_count\": " << worker_count()
      << ", \"ARTSPARSE_THREADS\": \""
      << json_escape(threads_env ? threads_env : "") << "\""
      << ", \"ARTSPARSE_CACHE_BYTES\": \""
      << json_escape(cache_env ? cache_env : "") << "\""
      << ", \"cache_budget_bytes\": " << spec_.cache_bytes
      << ", \"shape\": \"" << spec_.shape.to_string() << "\""
      << ", \"points\": " << (reference_ ? reference_->size() : 0)
      << ", \"fragments_loaded\": " << spec_.bands
      << ", \"read_clients\": " << spec_.readers
      << ", \"writers\": " << (spec_.traffic == Traffic::kMixed ? 1 : 0)
      << ", \"setups\": " << spec_.setups
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"artsparse_obs\": " << (PERFBENCH_OBS ? "true" : "false")
      << ", \"git_sha\": \"" << json_escape(options_.git_sha) << "\""
      << ", \"filesystem\": \"" << filesystem_type(options_.work_dir) << "\""
      << ", \"cpu_steal_share\": " << steal_share_
      << ", \"device_model\": \"unthrottled\""
      << ", \"flush_policy\": \"fsync file, rename, fsync directory on every "
         "commit\"}";
  return out.str();
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"scan-hot", "lookup-cold", "mixed-rw"};
}

RunResult run_workload(const RunOptions& options) {
  Runner runner(options, spec_for(options.workload, options.small));
  return runner.run();
}

}  // namespace perfbench
