#include "host.h"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

std::vector<std::string> DirEntries(const char* path) {
  std::vector<std::string> out;
  if (DIR* d = opendir(path)) {
    while (dirent* e = readdir(d))
      if (e->d_name[0] != '.') out.emplace_back(e->d_name);
    closedir(d);
  }
  return out;
}

uint64_t ParseSize(const std::string& s) {
  uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  if (s.find('K') != std::string::npos) v <<= 10;
  if (s.find('M') != std::string::npos) v <<= 20;
  return v;
}

}  // namespace

std::string HostFacts::ToJson() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"llc_bytes\": %llu, \"numa_nodes\": %d, "
                "\"hw_available\": %s}",
                nproc, static_cast<unsigned long long>(llc_bytes), numa_nodes,
                hw_available ? "true" : "false");
  return buf;
}

HostFacts ReadHostFacts() {
  HostFacts h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  for (const auto& idx : DirEntries("/sys/devices/system/cpu/cpu0/cache")) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size");
    std::string s;
    if (f >> s) h.llc_bytes = std::max(h.llc_bytes, ParseSize(s));
  }
  for (const auto& n : DirEntries("/sys/devices/system/node"))
    if (n.rfind("node", 0) == 0 && n.size() > 4 &&
        std::isdigit(static_cast<unsigned char>(n[4])))
      ++h.numa_nodes;
  if (h.numa_nodes == 0) h.numa_nodes = 1;  // no sysfs node view
  return h;
}

std::vector<int> ListThreads() {
  std::vector<int> tids;
  for (const auto& e : DirEntries("/proc/self/task")) tids.push_back(std::atoi(e.c_str()));
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> NewThreads(const std::vector<int>& before,
                            const std::vector<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

double ThreadCpuSeconds(int tid) {
  // The per-thread CPU clock of a thread in this process (the kernel's
  // MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED) encoding).
  clockid_t clk = static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
  timespec ts{};
  if (clock_gettime(clk, &ts) != 0) return -1;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadsCpuSeconds(const std::vector<int>& tids) {
  double sum = 0;
  for (int t : tids) sum += std::max(0.0, ThreadCpuSeconds(t));
  return sum;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
  return 0;
}

void PinCurrentThread(int cpu) {
  if (cpu >= sysconf(_SC_NPROCESSORS_ONLN)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

IdleSpinners::IdleSpinners() {
  int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  tids_.assign(static_cast<size_t>(std::max(cpus, 0)), 0);
  for (int cpu = 0; cpu < cpus; ++cpu)
    threads_.emplace_back([this, cpu] {
      PinCurrentThread(cpu);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      tids_[static_cast<size_t>(cpu)] = static_cast<int>(syscall(SYS_gettid));
      started_.fetch_add(1, std::memory_order_release);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  // Every tid is written before the constructor returns.
  while (started_.load(std::memory_order_acquire) < cpus)
    std::this_thread::yield();
}

IdleSpinners::~IdleSpinners() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
