#include "fleet.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "obs/timeline.h"
#include "obs/trace.h"

extern char** environ;

namespace perfbench {

std::vector<std::string> ScrubbedEnvironment() {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("FEDGTA_BACKEND=", 0) == 0 ||
        entry.rfind("FEDGTA_NUM_THREADS=", 0) == 0) {
      continue;
    }
    env.push_back(entry);
  }
  return env;
}

bool ReadPortFile(const std::string& path, int* port, int* agg_index) {
  std::ifstream in(path);
  if (!in.good()) return false;
  int p = -1;
  int idx = -1;
  in >> p >> idx;
  if (p <= 0 || idx < 0) return false;
  *port = p;
  *agg_index = idx;
  return true;
}

Fleet::Fleet(std::string log_dir)
    : log_dir_(std::move(log_dir)), env_(ScrubbedEnvironment()) {}

Fleet::~Fleet() {
  KillAll();
  std::string ignored;
  ReapAll(std::chrono::steady_clock::now(), &ignored);
}

pid_t Fleet::Spawn(const std::string& role, const std::string& binary,
                   const std::vector<std::string>& args) {
  // Everything the child needs is prepared before fork.
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (std::string& e : env_) envp.push_back(e.data());
  envp.push_back(nullptr);
  const std::string log = log_dir_ + "/" + role +
                          std::to_string(children_.size()) + ".log";
  const int log_fd =
      open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return -1;

  const pid_t pid = fork();
  if (pid == 0) {
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  close(log_fd);
  if (pid < 0) return -1;
  Child child;
  child.role = role;
  child.pid = pid;
  children_.push_back(child);
  return pid;
}

void Fleet::KillAll() {
  for (Child& c : children_) {
    if (!c.reaped && c.pid > 0) {
      kill(c.pid, SIGKILL);
      c.killed = true;
    }
  }
}

bool Fleet::ReapAll(std::chrono::steady_clock::time_point deadline,
                    std::string* error) {
  for (;;) {
    bool pending = false;
    for (Child& c : children_) {
      if (c.reaped) continue;
      int status = 0;
      const bool past_deadline = std::chrono::steady_clock::now() >= deadline;
      if (past_deadline && !c.killed) {
        kill(c.pid, SIGKILL);
        c.killed = true;
      }
      const pid_t got =
          wait4(c.pid, &status, c.killed ? 0 : WNOHANG, &c.usage);
      if (got == c.pid || (got < 0 && errno == ECHILD)) {
        c.reaped = true;
        c.exit_code = got == c.pid && WIFEXITED(status) ? WEXITSTATUS(status)
                                                        : -1;
      } else {
        pending = true;
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    const Child& c = children_[i];
    if (c.killed || c.exit_code != 0) {
      *error = c.role + " pid " + std::to_string(c.pid) +
               (c.killed ? " killed at the fleet deadline"
                         : " exited with code " + std::to_string(c.exit_code)) +
               "; log tail:\n" + LogTail(i);
      return false;
    }
  }
  return true;
}

std::string Fleet::LogTail(size_t index) const {
  const std::string log = log_dir_ + "/" + children_[index].role +
                          std::to_string(index) + ".log";
  std::ifstream in(log);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return text.size() > 600 ? text.substr(text.size() - 600) : text;
}

namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

ProcSample ReadSample(const std::vector<ProcSource>& sources, int round) {
  static const double kTicksPerSecond =
      static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcSample sample;
  sample.round = round;
  sample.ts_us = fedgta::internal_obs::TraceNowMicros();
  for (const ProcSource& s : sources) {
    int64_t ticks = 0;
    sample.cpu_s.push_back(ParseProcCpuTicks(Slurp(s.stat_path), &ticks)
                               ? ticks / kTicksPerSecond
                               : -1.0);
    sample.peak_kb.push_back(
        s.status_path.empty() ? -1 : ParseVmHwmKb(Slurp(s.status_path)));
  }
  return sample;
}

RoundSampler::RoundSampler(std::vector<ProcSource> sources, bool every_round,
                           int last_round)
    : every_round_(every_round),
      last_round_(last_round),
      sources_(std::move(sources)),
      thread_([this] { Loop(); }) {}

RoundSampler::~RoundSampler() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void RoundSampler::AddSource(const ProcSource& source) {
  std::lock_guard<std::mutex> lock(mutex_);
  sources_.push_back(source);
}

std::vector<ProcSource> RoundSampler::sources() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sources_;
}

void RoundSampler::Loop() {
  int seen = fedgta::GlobalTimeline().current_round();
  while (!stop_.load()) {
    const int round = fedgta::GlobalTimeline().current_round();
    if (round != seen && round > 0) {
      seen = round;
      if (every_round_ || round == 1 || round == last_round_) {
        const std::vector<ProcSource> current = sources();
        ProcSample sample = ReadSample(current, round);
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(std::move(sample));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RoundSampler::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  ProcSample last = ReadSample(sources(), 0);
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.push_back(std::move(last));
}

}  // namespace perfbench
