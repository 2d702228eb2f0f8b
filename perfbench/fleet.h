// Child-process plumbing of the benchmark's fleet workloads: spawning the
// shipped worker / aggregator binaries with a scrubbed environment,
// reaping every child with its rusage (also on failure), killing a hung
// fleet at a deadline, and sampling /proc at round boundaries.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// The current environment without the variables that would re-pin the
/// program's kernel backend or pool size (FEDGTA_BACKEND,
/// FEDGTA_NUM_THREADS), as NAME=VALUE strings for execve.
std::vector<std::string> ScrubbedEnvironment();

/// "<port>\n<agg_index>\n" as published by fedgta_aggregator --port_file.
bool ReadPortFile(const std::string& path, int* port, int* agg_index);

/// One spawned child. `usage` and `exit_code` are valid once reaped.
struct Child {
  std::string role;  // "worker" or "agg"
  pid_t pid = -1;
  bool reaped = false;
  bool killed = false;  // SIGKILLed by Fleet at a deadline
  int exit_code = -1;   // -1 = did not exit normally
  struct rusage usage {};
};

/// Owns the children of one workload episode. Every child is reaped before
/// the Fleet is destroyed: the destructor kills and reaps whatever is
/// still running, so no process outlives the episode.
class Fleet {
 public:
  /// Children write stdout/stderr to `<log_dir>/<role><n>.log`.
  explicit Fleet(std::string log_dir);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// fork + execve of `binary` with `args` (argv[0] is added). The child
  /// touches nothing but dup2/execve between fork and exec, because the
  /// parent may be multi-threaded. Returns the pid, -1 on failure.
  pid_t Spawn(const std::string& role, const std::string& binary,
              const std::vector<std::string>& args);

  /// Waits for every child until `deadline`, then SIGKILLs and reaps the
  /// rest. True when every child exited on its own with status 0;
  /// otherwise `error` names the first offender.
  bool ReapAll(std::chrono::steady_clock::time_point deadline,
               std::string* error);
  /// SIGKILLs every unreaped child (reaping happens in ReapAll / the
  /// destructor).
  void KillAll();

  const std::vector<Child>& children() const { return children_; }
  /// Tail of a child's log, for failure messages.
  std::string LogTail(size_t index) const;

 private:
  std::string log_dir_;
  std::vector<std::string> env_;
  std::vector<Child> children_;
};

/// A /proc reading of one process (or thread of this process).
struct ProcSource {
  std::string role;  // "coord", "worker", "agg"
  std::string stat_path;
  std::string status_path;  // empty: no peak-RSS reading
};

/// One sample: cumulative CPU seconds per source (-1 = unreadable) and
/// peak RSS in kB per source (-1 = unreadable), stamped on the program's
/// trace clock.
struct ProcSample {
  int64_t ts_us = 0;
  int round = 0;  // the round that just started; 0 = taken at run end
  std::vector<double> cpu_s;
  std::vector<int64_t> peak_kb;
};

ProcSample ReadSample(const std::vector<ProcSource>& sources, int round);

/// Samples the sources each time the program's GlobalTimeline() reports a
/// new round (polled every millisecond from its own thread). With
/// `every_round` false only the starts of round 1 and of `last_round` are
/// sampled: CPU over the rounds and peak RSS are all the untraced metrics
/// need. Stop() joins the thread.
class RoundSampler {
 public:
  RoundSampler(std::vector<ProcSource> sources, bool every_round,
               int last_round);
  ~RoundSampler();
  RoundSampler(const RoundSampler&) = delete;
  RoundSampler& operator=(const RoundSampler&) = delete;

  /// Adds sources (children spawned after construction); thread-safe.
  void AddSource(const ProcSource& source);
  /// Joins the polling thread and takes the final (run-end) sample.
  void Stop();
  /// Samples in order, the run-end one last. Valid after Stop().
  const std::vector<ProcSample>& samples() const { return samples_; }
  std::vector<ProcSource> sources() const;

 private:
  void Loop();

  const bool every_round_;
  const int last_round_;
  mutable std::mutex mutex_;
  std::vector<ProcSource> sources_;  // guarded by mutex_
  std::vector<ProcSample> samples_;  // guarded by mutex_ until Stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: uses the members above
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
