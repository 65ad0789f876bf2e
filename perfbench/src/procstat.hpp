// Process-level counters read from outside the library: the kernel's view
// of this process (/proc/self, getrusage). They see what no span inside the
// program can, such as how many OS threads the read fan-out creates and how
// often the scheduler preempts them.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>

namespace perfbench {

struct CpuSample {
  double cpu_seconds = 0.0;          ///< user + system, all threads
  std::int64_t involuntary_cs = 0;   ///< preemptions, all threads
};

CpuSample sample_cpu();

/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mib();

/// Current number of OS threads in this process.
int thread_count();

/// Bytes passed through read(2)/write(2)-family calls (/proc/self/io);
/// both 0 when the file is unreadable.
struct IoSample {
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};

IoSample sample_io();

/// Machine-wide CPU time from /proc/stat, in clock ticks. `steal` is time
/// the hypervisor ran something else while this machine's CPUs wanted to
/// run: on a shared host it slows every timed number alike, so a run
/// records its share to explain an outlier.
struct HostCpuSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostCpuSample sample_host_cpu();

/// Type of the filesystem holding `path`, from /proc/self/mounts (longest
/// mount point that prefixes it); "unknown" when not found.
std::string filesystem_type(const std::filesystem::path& path);

/// Polls thread_count() on its own thread and keeps the maximum. The
/// poller itself is one of the counted threads; peak() excludes it.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler();
  ~ThreadPeakSampler();
  ThreadPeakSampler(const ThreadPeakSampler&) = delete;
  ThreadPeakSampler& operator=(const ThreadPeakSampler&) = delete;

  int peak() const { return peak_.load() - 1; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread poller_;
};

}  // namespace perfbench
