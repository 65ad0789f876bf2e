#include "procstat.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Value of the "<key>:" line of /proc/self/status, first integer.
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return 0;
}

}  // namespace

CpuSample sample_cpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuSample sample;
  sample.cpu_seconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  sample.involuntary_cs = usage.ru_nivcsw;
  return sample;
}

double peak_rss_mib() {
  return static_cast<double>(status_field("VmHWM")) / 1024.0;
}

int thread_count() { return static_cast<int>(status_field("Threads")); }

IoSample sample_io() {
  std::ifstream in("/proc/self/io");
  IoSample sample;
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") sample.rchar = value;
    if (key == "wchar:") sample.wchar = value;
  }
  return sample;
}

HostCpuSample sample_host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpuSample sample;
  std::uint64_t ticks = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8 && in >> ticks; ++field) {
    sample.total += ticks;
    if (field == 7) sample.steal = ticks;
  }
  return sample;
}

std::string filesystem_type(const std::filesystem::path& path) {
  std::error_code ec;
  const std::string target =
      std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream in("/proc/self/mounts");
  std::string line;
  std::string best_type = "unknown";
  std::size_t best_length = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string device, mount_point, type;
    if (!(fields >> device >> mount_point >> type)) continue;
    const bool prefixes =
        target.compare(0, mount_point.size(), mount_point) == 0 &&
        (target.size() == mount_point.size() || mount_point == "/" ||
         target[mount_point.size()] == '/');
    if (prefixes && mount_point.size() >= best_length) {
      best_length = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

ThreadPeakSampler::ThreadPeakSampler() {
  poller_ = std::thread([this] {
    while (!stop_.load()) {
      const int now = thread_count();
      int seen = peak_.load();
      while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
}

ThreadPeakSampler::~ThreadPeakSampler() {
  stop_.store(true);
  poller_.join();
}

}  // namespace perfbench
