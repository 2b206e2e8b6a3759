// What the benchmark reads about its host and its own process: the host
// facts every result is written with, per-thread CPU time (to attribute
// CPU to the engine's and the server's threads), peak RSS and process CPU.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct HostFacts {
  int nproc = 0;
  uint64_t llc_bytes = 0;  ///< largest cache level sysfs reports
  int numa_nodes = 0;
  bool hw_available = false;  ///< from Database::StatsSnapshot()
  std::string ToJson() const;
};
/// Everything except hw_available, which the engine reports.
HostFacts ReadHostFacts();

/// Thread ids of this process, sorted.
std::vector<int> ListThreads();
/// Ids in `after` that are not in `before` (both sorted).
std::vector<int> NewThreads(const std::vector<int>& before,
                            const std::vector<int>& after);
/// CPU time of one thread of this process in seconds; -1 once it exited.
double ThreadCpuSeconds(int tid);
/// Summed over `tids`; exited threads count as 0.
double ThreadsCpuSeconds(const std::vector<int>& tids);
/// User + system CPU of the whole process, in seconds.
double ProcessCpuSeconds();
/// VmHWM: the process's peak resident set so far, in MiB.
double PeakRssMb();
/// Pins the calling thread to `cpu` when the host has it (best effort).
void PinCurrentThread(int cpu);

/// One SCHED_IDLE thread per CPU of the host, each pinned to its CPU and
/// spinning while nothing else of the machine's guest wants that CPU. On a
/// virtual machine a CPU with nothing to run halts, and a thread woken on
/// it then waits until the hypervisor runs that virtual CPU again, which on
/// a shared host takes from microseconds to milliseconds depending on the
/// other tenants. With a spinner below it, a woken engine thread preempts
/// the spinner at once inside the guest. The spinners' CPU time is read
/// apart, so it can be left out of the process's CPU time.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();  ///< stops and joins every spinner
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  /// Summed CPU time of the spinners so far, in seconds.
  double CpuSeconds() const { return ThreadsCpuSeconds(tids_); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> started_{0};
  std::vector<int> tids_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
