// End-to-end benchmark binary: runs one FedGTA workload through the
// program's public entry points and prints its metrics.
//
//   e2e_bench --workload=arxiv-sim --seed=1 --seconds=30 --trace=0
//       --bin_dir=<build dir> --work_dir=<scratch dir inside the checkout>
//       --reference=perfbench/reference.txt --results_dir=<cache dir>
//
// Normally launched by perfbench/run.py, which builds the binaries first.
// One invocation measures one workload in a fresh process, so peak RSS and
// allocator state belong to that workload. A run is a sequence of
// episodes, each a fresh set-up (dataset build / fleet spawn) followed by
// the workload's fixed number of rounds; episodes repeat until --seconds
// is used up (at least two, so set-up is timed more than once and every
// run checks that repeated runs are bit-identical).
//
// --trace=0 prints the end-to-end metrics. --trace=1 prints the per-layer
// metrics, recorded from this file only: on the in-process plane by spans
// around the strategy calls the simulation already makes, on the fleets
// by /proc samples of every process at each round boundary plus the
// counters the program already keeps. Traced and untraced episodes
// alternate in a traced run, so obs.trace_overhead compares like with
// like.

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/similarity.h"
#include "fed/fedgta_strategy.h"
#include "fed/hierarchy.h"
#include "fed/remote_config.h"
#include "fed/remote_coordinator.h"
#include "fed/role.h"
#include "fed/simulation.h"
#include "fleet.h"
#include "linalg/backend.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using fedgta::FederatedDataset;
using fedgta::GlobalMetrics;
using fedgta::GlobalTimeline;
using fedgta::RemoteFedConfig;
using fedgta::TimelineEvent;
using fedgta::TimelineEventKind;
using fedgta::fed::RunResult;

int64_t NowUs() { return fedgta::internal_obs::TraceNowMicros(); }

// ---------------------------------------------------------------------------
// Workloads

enum class Plane { kSimulation, kFlat, kHierarchical };

struct Workload {
  const char* name;
  /// Why this workload is in the benchmark (also in BENCHMARK.json).
  const char* why;
  Plane plane;
  const char* dataset;
  int clients;
  int local_epochs;
  const char* compress;
  fedgta::SimilarityMode similarity;
  /// Rounds per episode. products-flat and products-hier share it: they
  /// must produce the same result.
  int rounds;
  int workers;
  int aggregators;
  /// Pool sizes; their concurrent compute stays within nproc (4 on the
  /// reference machine): the in-process pool, or the coordinator (4)
  /// while 1-thread workers wait on it and vice versa.
  int coord_threads;
  int child_threads;
  /// Key of the recorded result in reference.txt (the two fleets share it).
  const char* reference_key;
};

constexpr Workload kWorkloads[] = {
    {"arxiv-sim",
     "in-process Simulation, ogbn-arxiv surrogate, GCN, 10 clients x 5 "
     "epochs: local training and Eq. 3-5 client metrics are the round; no "
     "wire, tiny server plane",
     Plane::kSimulation, "ogbn-arxiv", 10, 5, "off",
     fedgta::SimilarityMode::kExact, 10, 0, 0, 4, 0, "arxiv"},
    {"products-flat",
     "RemoteCoordinator + 4 worker processes, 1024 small GCN clients, "
     "delta wire codec: per-client RPCs, compression and the ~1M-pair Eq. "
     "6/7 server plane carry the round",
     Plane::kFlat, "ogbn-products", 1024, 3, "delta",
     fedgta::SimilarityMode::kAuto, 5, 4, 0, 4, 1, "products"},
    {"products-hier",
     "products-flat's inputs through a root, 2 aggregators and 4 workers: "
     "sequential routed sharded-plane phases on top of the RPCs; result "
     "must equal products-flat",
     Plane::kHierarchical, "ogbn-products", 1024, 3, "delta",
     fedgta::SimilarityMode::kAuto, 5, 4, 2, 1, 1, "products"},
};

/// --seed when none is given.
constexpr uint64_t kDefaultSeed = 1;
/// Allowed distance of a run's final test accuracy from the recorded one.
constexpr double kReferenceTolerancePts = 1.0;

/// A workload's inputs — the surrogate dataset, its federated split and
/// the clients' model init — are part of its definition and fixed here.
/// Regenerating them per seed changes the work and the reachable accuracy
/// far more than run-to-run noise does (products-hier, seeds 1-5: round
/// p50 17% and test_acc 63% IQR/median; arxiv-sim with only the model init
/// reseeded: test_acc 13%), which would drown the regressions the
/// benchmark exists to detect.
constexpr uint64_t kInputSeed = 1;

/// --seed is the Eq. 6 LSH projection seed. The prescreen only prunes
/// pairs the exact check would reject, so results must not depend on it,
/// while the pairs pruned (and so the server plane's work) do. The
/// in-process workload runs the exact plane (10 participants), where the
/// seed changes nothing.
RemoteFedConfig MakeConfig(const Workload& w, uint64_t seed) {
  RemoteFedConfig config;
  config.dataset = w.dataset;
  config.seed = kInputSeed;
  config.split.method = fedgta::SplitMethod::kLouvain;
  config.split.num_clients = w.clients;
  config.model.type = fedgta::ModelType::kGcn;
  config.model.hidden = 64;
  config.strategy = "fedgta";
  config.strategy_options.fedgta.similarity.mode = w.similarity;
  config.sim.rounds = w.rounds;
  config.sim.local_epochs = w.local_epochs;
  config.sim.participation = 1.0;
  config.sim.eval_every = 1;
  config.sim.seed = kInputSeed;
  config.strategy_options.fedgta.similarity.lsh_seed =
      0x5EED5111ull ^ (seed * 0x9E3779B97F4A7C15ull);
  config.compress = w.compress;
  config.num_workers = w.workers;
  config.num_aggregators = w.aggregators;
  config.rpc.deadline_ms = 60000;
  config.accept_timeout_ms = 30000;
  config.status_port = -1;
  return config;
}

// ---------------------------------------------------------------------------
// Spans around the strategy calls of the in-process plane

class SpanRecorder {
 public:
  int Begin(const char* name, int parent) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.start_us = NowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    const int64_t now = NowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_us = now;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// FedGTA with spans around the public calls FedGtaStrategy::TrainClient
/// makes (the same calls, in the same order) and around Aggregate.
class TimedFedGta : public fedgta::FedGtaStrategy {
 public:
  TimedFedGta(const fedgta::FedGtaOptions& options, SpanRecorder* spans)
      : FedGtaStrategy(options), spans_(spans) {}

  fedgta::LocalResult TrainClient(fedgta::Client& client, int epochs,
                                  const fedgta::TrainHooks& hooks) override {
    const int span = spans_->Begin("fed.client", -1);
    const int train = spans_->Begin("gnn.train", span);
    fedgta::LocalResult result = Strategy::TrainClient(client, epochs, hooks);
    spans_->End(train);
    const int metrics = spans_->Begin("core.client_metrics", span);
    result.metrics = client.ComputeFedGtaMetrics(options());
    spans_->End(metrics);
    spans_->End(span);
    return result;
  }

  void Aggregate(const std::vector<int>& participants,
                 const std::vector<fedgta::LocalResult>& results) override {
    const int span = spans_->Begin("core.aggregate", -1);
    FedGtaStrategy::Aggregate(participants, results);
    spans_->End(span);
  }

 private:
  SpanRecorder* spans_;
};

// ---------------------------------------------------------------------------
// One episode

struct RoundRecord {
  int64_t start_us = 0;
  int64_t end_us = 0;  // next round's start, or when Run() returned
  int64_t round_end_us = 0;  // the program's RoundEnd stamp
  int64_t participants = 0;
  int64_t failed = 0;  // dropped + stragglers + crashed
  double client_s = 0.0;  // program-reported client / server seconds
  double server_s = 0.0;
  double period() const { return (end_us - start_us) * 1e-6; }
};

struct Episode {
  bool traced = false;
  std::string error;  // non-empty: the episode failed
  RunResult result;
  double setup_s = 0.0;
  std::vector<RoundRecord> rounds;
  fedgta::MetricsSnapshot metrics;
  /// Round-boundary /proc samples (run-end sample last) and their sources.
  std::vector<ProcSource> sources;
  std::vector<ProcSample> samples;
  /// In-process plane, traced: recorded spans and set-up components.
  std::vector<Span> spans;
  double data_build_s = 0.0;
  double client_init_s = 0.0;
};

/// Thread ids of the in-process pool's workers (set once in Main).
std::vector<int> g_pool_tids;

std::set<int> ListTasks() {
  std::set<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') tids.insert(std::atoi(e->d_name));
  }
  closedir(dir);
  return tids;
}

std::vector<ProcSource> SelfSources(const Workload& w) {
  std::vector<ProcSource> sources = {
      {"coord", "/proc/self/stat", "/proc/self/status"}};
  if (w.plane == Plane::kSimulation) {
    for (int tid : g_pool_tids) {
      const std::string base = "/proc/self/task/" + std::to_string(tid);
      sources.push_back({"worker.thread", base + "/stat", ""});
    }
  }
  return sources;
}

ProcSource ChildSource(const std::string& role, pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  return {role, base + "/stat", base + "/status"};
}

/// Reads round boundaries and program-reported phase seconds out of the
/// program's timeline.
std::vector<RoundRecord> RoundsFromTimeline(int64_t run_end_us) {
  std::vector<RoundRecord> rounds;
  for (const TimelineEvent& e : GlobalTimeline().Events()) {
    if (e.round < 1) continue;
    if (static_cast<size_t>(e.round) > rounds.size()) {
      rounds.resize(static_cast<size_t>(e.round));
    }
    RoundRecord& r = rounds[static_cast<size_t>(e.round - 1)];
    switch (e.kind) {
      case TimelineEventKind::kRoundStart:
        r.start_us = e.ts_us;
        r.participants = e.participants;
        break;
      case TimelineEventKind::kRoundEnd:
        r.round_end_us = e.ts_us;
        r.failed = e.dropped + e.stragglers + e.crashed;
        break;
      case TimelineEventKind::kPhase:
        if (e.label == "client") r.client_s = e.seconds;
        if (e.label == "server") r.server_s = e.seconds;
        break;
      default:
        break;
    }
  }
  for (size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].end_us =
        i + 1 < rounds.size() ? rounds[i + 1].start_us : run_end_us;
  }
  return rounds;
}

/// Finishes an episode from the program's timeline and registry.
void CollectEpisode(int64_t start_us, int64_t run_end_us, Episode* ep) {
  ep->rounds = RoundsFromTimeline(run_end_us);
  ep->metrics = GlobalMetrics().Capture();
  if (ep->rounds.empty() || ep->rounds.front().start_us == 0) {
    if (ep->error.empty()) ep->error = "the program recorded no round start";
    return;
  }
  ep->setup_s = (ep->rounds.front().start_us - start_us) * 1e-6;
}

void ResetProgramState() {
  GlobalMetrics().Reset();
  GlobalTimeline().Clear();
}

Episode RunSimulationEpisode(const Workload& w, uint64_t seed, bool traced) {
  Episode ep;
  ep.traced = traced;
  ResetProgramState();
  const RemoteFedConfig config = MakeConfig(w, seed);
  SpanRecorder spans;
  const int64_t start = NowUs();
  const int build = spans.Begin("data.build", -1);
  const FederatedDataset data = fedgta::MaterializeFederatedDataset(
      config.dataset, config.seed, config.split, config.federated);
  spans.End(build);
  std::unique_ptr<fedgta::Strategy> strategy;
  if (traced) {
    strategy = std::make_unique<TimedFedGta>(config.strategy_options.fedgta,
                                             &spans);
  } else {
    fedgta::Result<std::unique_ptr<fedgta::Strategy>> made =
        fedgta::MakeStrategy(config.strategy, config.strategy_options);
    if (!made.ok()) {
      ep.error = made.status().ToString();
      return ep;
    }
    strategy = std::move(*made);
  }
  RoundSampler sampler(SelfSources(w), traced, w.rounds);
  const int init = spans.Begin("fed.client_init", -1);
  fedgta::Simulation simulation(&data, config.model, config.optimizer,
                                std::move(strategy), config.sim);
  spans.End(init);
  ep.result = simulation.Run();
  const int64_t end = NowUs();
  sampler.Stop();
  ep.sources = sampler.sources();
  ep.samples = sampler.samples();
  CollectEpisode(start, end, &ep);
  if (traced) {
    ep.spans = spans.spans();
    for (const Span& s : ep.spans) {
      if (s.name == "data.build") {
        ep.data_build_s = (s.end_us - s.start_us) * 1e-6;
      }
      if (s.name == "fed.client_init") {
        ep.client_init_s = (s.end_us - s.start_us) * 1e-6;
      }
    }
  }
  return ep;
}

/// Kills the fleet if the episode outlives its deadline (a hung fleet
/// becomes a failed run instead of running into the next one).
class Watchdog {
 public:
  Watchdog(std::chrono::steady_clock::time_point deadline,
           std::function<void()> on_expiry)
      : thread_([this, deadline, on_expiry = std::move(on_expiry)] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_until(lock, deadline, [this] { return done_; })) {
            expired_ = true;
            lock.unlock();
            on_expiry();
          }
        }) {}
  ~Watchdog() { Disarm(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops the watch; true when the deadline had already fired.
  bool Disarm() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return expired_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  bool expired_ = false;
  std::thread thread_;  // declared last: uses the members above
};

struct FleetPaths {
  std::string bin_dir;
  std::string work_dir;
};

std::vector<std::string> ChildArgs(const Workload& w, int port) {
  return {"--host=127.0.0.1", "--port=" + std::to_string(port),
          "--num_threads=" + std::to_string(w.child_threads),
          "--connect_attempts=60", "--deadline_ms=60000"};
}

Episode RunFleetEpisode(const Workload& w, uint64_t seed, bool traced,
                        const FleetPaths& paths,
                        std::chrono::steady_clock::time_point deadline) {
  Episode ep;
  ep.traced = traced;
  ResetProgramState();
  const RemoteFedConfig config = MakeConfig(w, seed);
  const bool hier = w.plane == Plane::kHierarchical;
  const std::string worker_bin = paths.bin_dir + "/fedgta_worker";
  const std::string agg_bin = paths.bin_dir + "/fedgta_aggregator";

  const int64_t start = NowUs();
  Fleet fleet(paths.work_dir);
  std::mutex fleet_mutex;  // Spawn (this thread) vs. KillAll (watchdog)
  auto spawn = [&](const std::string& role, const std::string& bin,
                   std::vector<std::string> args) {
    std::lock_guard<std::mutex> lock(fleet_mutex);
    return fleet.Spawn(role, bin, args);
  };
  Watchdog watchdog(deadline, [&] {
    std::lock_guard<std::mutex> lock(fleet_mutex);
    fleet.KillAll();
  });
  RoundSampler sampler(SelfSources(w), traced, w.rounds);
  fedgta::Result<RunResult> result = fedgta::InternalError("not run");

  if (!hier) {
    fedgta::RemoteCoordinator coordinator(config);
    if (const fedgta::Status s = coordinator.Listen(0); !s.ok()) {
      ep.error = "coordinator listen: " + s.ToString();
      return ep;
    }
    for (int i = 0; i < w.workers; ++i) {
      const pid_t pid =
          spawn("worker", worker_bin, ChildArgs(w, coordinator.port()));
      if (pid > 0) sampler.AddSource(ChildSource("worker", pid));
    }
    result = coordinator.Run();
  } else {
    fedgta::fed::RootCoordinator root(config);
    if (const fedgta::Status s = root.Listen(0); !s.ok()) {
      ep.error = "root listen: " + s.ToString();
      return ep;
    }
    std::vector<std::string> port_files;
    for (int a = 0; a < w.aggregators; ++a) {
      port_files.push_back(paths.work_dir + "/agg" + std::to_string(a) +
                           ".port");
      std::remove(port_files.back().c_str());
      std::vector<std::string> args = ChildArgs(w, root.port());
      args.push_back("--listen_port=0");
      args.push_back("--port_file=" + port_files.back());
      const pid_t pid = spawn("agg", agg_bin, args);
      if (pid > 0) sampler.AddSource(ChildSource("agg", pid));
    }
    std::atomic<bool> root_done{false};
    std::thread root_thread([&] {
      result = root.Run();
      root_done = true;
    });
    // Launch order of the README: each aggregator's workers start as soon
    // as that aggregator publishes its port file (it does so only after
    // the root assigned its shard).
    const fedgta::fed::Topology topo(config.split.num_clients,
                                     config.num_aggregators,
                                     config.num_workers);
    std::vector<bool> launched(port_files.size(), false);
    size_t remaining = port_files.size();
    while (remaining > 0 && !root_done.load() &&
           std::chrono::steady_clock::now() < deadline) {
      for (size_t f = 0; f < port_files.size(); ++f) {
        int port = 0;
        int agg_index = -1;
        if (launched[f] || !ReadPortFile(port_files[f], &port, &agg_index) ||
            agg_index >= w.aggregators) {
          continue;
        }
        for (int i = 0; i < topo.WorkerShard(agg_index).size(); ++i) {
          const pid_t pid = spawn("worker", worker_bin, ChildArgs(w, port));
          if (pid > 0) sampler.AddSource(ChildSource("worker", pid));
        }
        launched[f] = true;
        --remaining;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    root_thread.join();
  }
  const int64_t end = NowUs();
  sampler.Stop();
  const bool expired = watchdog.Disarm();
  // After a failed run nothing is waited for; after a clean one the
  // children exit on the Shutdown the coordinator already sent.
  if (!result.ok()) fleet.KillAll();
  std::string reap_error;
  const bool reaped_clean = fleet.ReapAll(
      std::chrono::steady_clock::now() + std::chrono::seconds(15),
      &reap_error);
  ep.sources = sampler.sources();
  ep.samples = sampler.samples();
  // The run-end sample may miss children that already exited; their
  // rusage covers everything up to exit.
  if (!ep.samples.empty()) {
    ProcSample& last = ep.samples.back();
    last.cpu_s.resize(ep.sources.size(), -1.0);
    for (const Child& c : fleet.children()) {
      for (size_t s = 0; s < ep.sources.size(); ++s) {
        if (ep.sources[s].stat_path !=
            "/proc/" + std::to_string(c.pid) + "/stat") {
          continue;
        }
        const double cpu =
            c.usage.ru_utime.tv_sec + c.usage.ru_utime.tv_usec * 1e-6 +
            c.usage.ru_stime.tv_sec + c.usage.ru_stime.tv_usec * 1e-6;
        last.cpu_s[s] = std::max(last.cpu_s[s], cpu);
      }
    }
  }
  if (expired) {
    ep.error = "fleet killed at the episode deadline";
  } else if (!result.ok()) {
    ep.error = "Run(): " + result.status().ToString();
  } else if (!reaped_clean) {
    ep.error = reap_error;
  }
  if (result.ok()) ep.result = std::move(*result);
  CollectEpisode(start, end, &ep);
  return ep;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int64_t CounterValue(const fedgta::MetricsSnapshot& m,
                     const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

double HistogramSum(const fedgta::MetricsSnapshot& m, const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0.0 : it->second.sum;
}

/// Sum of `suffix` over the coordinator's own counter and the worker-link
/// rollups of every aggregator (agg.<i>.fleet.<suffix>), i.e. each link
/// counted once at one endpoint. On the flat plane only the first term
/// exists.
int64_t LinkCounter(const fedgta::MetricsSnapshot& m, const Workload& w,
                    const std::string& suffix) {
  int64_t total = CounterValue(m, suffix);
  for (int a = 0; a < w.aggregators; ++a) {
    total += CounterValue(m, "agg." + std::to_string(a) + ".fleet." + suffix);
  }
  return total;
}

/// Sum of `suffix` over every process: the coordinator's own counter, the
/// rollup of the processes that report to it (fleet.<suffix>: workers on
/// the flat plane, aggregators on the hierarchical one) and the
/// aggregators' worker rollups.
int64_t ProcessCounter(const fedgta::MetricsSnapshot& m, const Workload& w,
                       const std::string& suffix) {
  return LinkCounter(m, w, suffix) + CounterValue(m, "fleet." + suffix);
}

/// Program-reported phase seconds of every worker process.
double WorkerPhaseSeconds(const fedgta::MetricsSnapshot& m, const Workload& w,
                          const std::string& phase) {
  const std::string name = "phase." + phase + ".seconds";
  if (w.aggregators == 0) return HistogramSum(m, "fleet." + name);
  double total = 0.0;
  for (int a = 0; a < w.aggregators; ++a) {
    total += HistogramSum(m, "agg." + std::to_string(a) + ".fleet." + name);
  }
  return total;
}

/// CPU seconds of one role per round over an episode's round intervals.
/// Role "coord" on the in-process plane excludes the pool threads.
std::vector<double> RoleCpuPerRound(const Episode& ep,
                                    const std::string& role) {
  std::vector<std::vector<double>> rows;
  for (const ProcSample& s : ep.samples) rows.push_back(s.cpu_s);
  std::vector<int> members;
  std::vector<int> threads;
  for (size_t i = 0; i < ep.sources.size(); ++i) {
    const std::string& r = ep.sources[i].role;
    if (r == role || (role == "worker" && r == "worker.thread")) {
      members.push_back(static_cast<int>(i));
    }
    if (role == "coord" && r == "worker.thread") {
      threads.push_back(static_cast<int>(i));
    }
  }
  std::vector<double> cpu = IntervalCpu(rows, members);
  if (!threads.empty()) {
    const std::vector<double> pool = IntervalCpu(rows, threads);
    for (size_t i = 0; i < cpu.size(); ++i) cpu[i] -= pool[i];
  }
  return cpu;
}

/// CPU seconds of every process over the episode's rounds.
double TotalRoundCpu(const Episode& ep) {
  double total = 0.0;
  for (const char* role : {"coord", "worker", "agg"}) {
    for (double c : RoleCpuPerRound(ep, role)) total += c;
  }
  return total;
}

/// Peak RSS (MB) over an episode's samples, per role ("" = any process).
double PeakRssMb(const Episode& ep, const std::string& role) {
  int64_t peak_kb = 0;
  for (const ProcSample& s : ep.samples) {
    for (size_t i = 0; i < s.peak_kb.size() && i < ep.sources.size(); ++i) {
      if (!role.empty() && ep.sources[i].role != role) continue;
      peak_kb = std::max(peak_kb, s.peak_kb[i]);
    }
  }
  if (role.empty() || role == "coord") {
    struct rusage self {};
    getrusage(RUSAGE_SELF, &self);
    peak_kb = std::max<int64_t>(peak_kb, self.ru_maxrss);
  }
  return peak_kb / 1024.0;
}

struct EndToEnd {
  std::vector<double> periods;
  Tail tail;
  double round_p50 = 0.0;
  double updates_per_s = 0.0;
  double setup_s = 0.0;
  double test_acc = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_s_per_round = 0.0;
  double wire_mb_per_round = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

EndToEnd SummarizeEndToEnd(const Workload& w,
                           const std::vector<const Episode*>& eps) {
  EndToEnd e;
  std::vector<double> setups;
  double healthy = 0.0;
  double round_time = 0.0;
  double cpu = 0.0;
  double wire = 0.0;
  int rounds = 0;
  for (const Episode* ep : eps) {
    setups.push_back(ep->setup_s);
    for (const RoundRecord& r : ep->rounds) {
      e.periods.push_back(r.period());
      round_time += r.period();
      healthy += static_cast<double>(r.participants - r.failed);
      e.attempted += r.participants;
      e.failed += r.failed;
      ++rounds;
    }
    cpu += TotalRoundCpu(*ep);
    wire += static_cast<double>(LinkCounter(ep->metrics, w, "net.bytes_wire"));
    e.peak_rss_mb = std::max(e.peak_rss_mb, PeakRssMb(*ep, ""));
    e.test_acc = 100.0 * ep->result.final_test_accuracy;
  }
  e.round_p50 = Median(e.periods);
  e.tail = TailPercentile(e.periods, 10);
  e.updates_per_s = round_time > 0 ? healthy / round_time : 0.0;
  e.setup_s = Median(setups);
  e.cpu_s_per_round = rounds > 0 ? cpu / rounds : 0.0;
  e.wire_mb_per_round = rounds > 0 ? wire / 1e6 / rounds : 0.0;
  return e;
}

/// The span tree of a traced in-process episode (see BuildRoundTree).
std::vector<Span> RoundTree(const Episode& ep) {
  std::vector<int64_t> starts;
  for (const RoundRecord& r : ep.rounds) starts.push_back(r.start_us);
  const int64_t end = ep.rounds.empty() ? 0 : ep.rounds.back().end_us;
  return BuildRoundTree(starts, end, ep.spans);
}

/// Per-layer metrics of the traced episodes; seconds, bytes and counts are
/// per round unless named otherwise. `layer_gap_s` receives the largest
/// |client_phase + aggregate + eval + other - period| of any round (the
/// attribution must be additive).
std::vector<Metric> SummarizeLayers(const Workload& w,
                                    const std::vector<const Episode*>& traced,
                                    double trace_overhead_s,
                                    double* layer_gap_s) {
  *layer_gap_s = 0.0;
  // Totals over every traced round.
  double period = 0, client_phase = 0, aggregate = 0, eval = 0, other = 0,
         train = 0, metrics = 0, client_work = 0, participants = 0;
  double raw = 0, wire = 0, messages = 0, retries = 0, failures = 0,
         pairs_exact = 0, pairs_pruned = 0, dedup = 0;
  std::map<std::string, double> role_cpu;
  std::map<std::string, double> msg_bytes;
  const char* kTypes[] = {"TrainRequest", "TrainResponse", "EvalRequest",
                          "EvalResponse", "Routed"};
  std::vector<double> data_build, client_init, handshake;
  double peak_coord = 0, peak_agg = 0, peak_worker = 0;
  int rounds = 0;
  for (const Episode* ep : traced) {
    for (const RoundRecord& r : ep->rounds) {
      period += r.period();
      participants += static_cast<double>(r.participants);
      ++rounds;
    }
    if (w.plane == Plane::kSimulation) {
      for (const RoundLayers& l : AttributeRounds(RoundTree(*ep))) {
        *layer_gap_s = std::max(
            *layer_gap_s, std::abs(l.client_phase + l.aggregate + l.eval +
                                   l.other - l.period));
        client_phase += l.client_phase;
        aggregate += l.aggregate;
        eval += l.eval;
        other += l.other;
        train += l.train_sum;
        metrics += l.metrics_sum;
        client_work += l.client_sum;
      }
      data_build.push_back(ep->data_build_s);
      client_init.push_back(ep->client_init_s);
    } else {
      for (const RoundRecord& r : ep->rounds) {
        const double eval_s = (r.end_us - r.round_end_us) * 1e-6;
        client_phase += r.client_s;
        aggregate += r.server_s;
        eval += eval_s;
        // The remainder by definition: additive by construction.
        other += r.period() - r.client_s - r.server_s - eval_s;
      }
      const double t = WorkerPhaseSeconds(ep->metrics, w, "local_train");
      const double m = WorkerPhaseSeconds(ep->metrics, w, "fedgta_metrics");
      train += t;
      metrics += m;
      client_work += t + m;
    }
    handshake.push_back(ep->result.setup_seconds);
    for (const char* role : {"coord", "worker", "agg"}) {
      for (double c : RoleCpuPerRound(*ep, role)) role_cpu[role] += c;
    }
    const fedgta::MetricsSnapshot& mx = ep->metrics;
    raw += static_cast<double>(LinkCounter(mx, w, "net.bytes_raw"));
    wire += static_cast<double>(LinkCounter(mx, w, "net.bytes_wire"));
    messages += static_cast<double>(LinkCounter(mx, w, "net.messages"));
    retries += static_cast<double>(
        ProcessCounter(mx, w, "net.connect_retries"));
    failures += static_cast<double>(ep->result.total_dropped_clients);
    for (const char* type : kTypes) {
      const std::string name = std::string("net.bytes_sent.") + type;
      msg_bytes[type] += static_cast<double>(ProcessCounter(mx, w, name));
    }
    pairs_exact += static_cast<double>(
        CounterValue(mx, "fedgta.similarity.pairs_exact"));
    pairs_pruned += static_cast<double>(
        CounterValue(mx, "fedgta.similarity.pairs_pruned"));
    dedup += static_cast<double>(
        CounterValue(mx, "fedgta.aggregation.dedup_reused"));
    peak_coord = std::max(peak_coord, PeakRssMb(*ep, "coord"));
    peak_agg = std::max(peak_agg, PeakRssMb(*ep, "agg"));
    peak_worker = std::max(peak_worker, PeakRssMb(*ep, "worker"));
  }
  const double per_round = rounds > 0 ? 1.0 / rounds : 0.0;
  // Client work runs on the pool threads in process, on the worker
  // processes on the fleets.
  const int executors =
      w.plane == Plane::kSimulation ? w.coord_threads : w.workers;
  const double attempted_pairs = pairs_exact + pairs_pruned;
  std::vector<Metric> out = {
      {"gnn.train_s", train * per_round, "s"},
      {"core.client_metrics_s", metrics * per_round, "s"},
      {"fed.client_phase_s", client_phase * per_round, "s"},
      {"fed.pool_idle_share",
       client_phase > 0 ? 1.0 - client_work / (executors * client_phase)
                        : 0.0,
       "ratio"},
      {"core.aggregate_s", aggregate * per_round, "s"},
      {"fed.eval_s", eval * per_round, "s"},
      {"fed.other_s", other * per_round, "s"},
      {"data.build_s", Median(data_build), "s"},
      {"fed.client_init_s", Median(client_init), "s"},
      {"setup.handshake_s", Median(handshake), "s"},
      {"worker.cpu_s", role_cpu["worker"] * per_round, "s"},
      {"agg.cpu_s", role_cpu["agg"] * per_round, "s"},
      {"coord.cpu_s", role_cpu["coord"] * per_round, "s"},
      {"worker.busy_share",
       period > 0 ? role_cpu["worker"] / (executors * period) : 0.0, "ratio"},
      {"net.raw_mb", raw / 1e6 * per_round, "MB"},
      {"net.wire_mb", wire / 1e6 * per_round, "MB"},
      {"compress.ratio", wire > 0 ? raw / wire : 1.0, "ratio"},
      {"net.messages", messages * per_round, "count"},
  };
  for (const char* type : kTypes) {
    out.push_back({std::string("net.msg_mb.") + type,
                   msg_bytes[type] / 1e6 * per_round, "MB"});
  }
  out.insert(
      out.end(),
      {
          {"net.rpc_retries", retries, "count"},
          {"net.rpc_failures", failures, "count"},
          {"core.similarity.pairs", attempted_pairs * per_round, "count"},
          {"core.similarity.prune_ratio",
           attempted_pairs > 0 ? pairs_pruned / attempted_pairs : 0.0,
           "ratio"},
          {"core.aggregation.dedup_ratio",
           participants > 0 ? dedup / participants : 0.0, "ratio"},
          {"mem.peak_rss_mb.coord", peak_coord, "MB"},
          {"mem.peak_rss_mb.agg", peak_agg, "MB"},
          {"mem.peak_rss_mb.worker", peak_worker, "MB"},
          {"obs.trace_overhead", trace_overhead_s, "s"},
      });
  return out;
}

// ---------------------------------------------------------------------------
// Correctness

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// FNV-1a over the program binaries, so a cached result of one plane is
/// only compared against a build of the same code.
std::string BuildFingerprint(const std::string& bin_dir) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& path :
       {std::string("/proc/self/exe"), bin_dir + "/fedgta_worker",
        bin_dir + "/fedgta_aggregator"}) {
    for (unsigned char c : ReadFile(path)) {
      h = (h ^ c) * 1099511628211ull;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string reference;
  std::string results_dir;
  std::string spans_out;
  bool record = false;  // print the reference block instead of checking it
};

std::vector<std::string> CheckCorrectness(const Workload& w,
                                          const Options& opt,
                                          const std::vector<Episode>& eps,
                                          const EndToEnd& e) {
  std::vector<std::string> reasons;
  for (const Episode& ep : eps) {
    if (!ep.error.empty()) reasons.push_back("episode failed: " + ep.error);
  }
  if (!reasons.empty()) return reasons;
  if (e.failed != 0) {
    reasons.push_back("failed_share: " + std::to_string(e.failed) + " of " +
                      std::to_string(e.attempted) +
                      " client updates failed (expected 0)");
  }
  for (size_t i = 1; i < eps.size(); ++i) {
    const std::string diff = CompareResults(
        "episode " + std::to_string(i) + " vs episode 0 (same inputs)",
        eps[0].result, eps[i].result);
    if (!diff.empty()) reasons.push_back(diff);
  }
  const RunResult& result = eps[0].result;
  if (static_cast<int>(result.curve.size()) != w.rounds) {
    reasons.push_back("curve has " + std::to_string(result.curve.size()) +
                      " rounds, expected " + std::to_string(w.rounds));
  }
  const std::string key =
      std::string(w.reference_key) + " rounds=" + std::to_string(w.rounds);
  if (opt.record) {
    std::printf("%s", FormatResultBlock(key, result).c_str());
    return reasons;
  }
  // test_acc against the recorded reference. The inputs are fixed and the
  // seed must not change the result, so this holds on every seed. Within
  // a tolerance rather than bit for bit: a later change that legitimately
  // moves float rounding (a faster kernel, say) must not fail the
  // benchmark, and its accuracy shift still shows in test_acc.
  RunResult reference;
  if (!FindResultBlock(ReadFile(opt.reference), key, &reference)) {
    reasons.push_back("no recorded reference '" + key + "' in " +
                      opt.reference);
  } else {
    const double delta =
        100.0 * (result.final_test_accuracy - reference.final_test_accuracy);
    std::printf("reference '%s': test_acc %+.4f pt, curve %s\n", key.c_str(),
                delta,
                CompareResults("", reference, result).empty()
                    ? "bit-identical"
                    : "differs");
    if (std::abs(delta) > kReferenceTolerancePts) {
      reasons.push_back("test_acc " + Num(e.test_acc) + "% is " +
                        Num(delta) + " pt off the recorded reference '" +
                        key + "' (tolerance " +
                        Num(kReferenceTolerancePts) + " pt)");
    }
  }
  if (w.plane != Plane::kSimulation && !opt.results_dir.empty()) {
    // The plane contract: identical inputs give bit-identical results. The
    // first fleet run of a build caches its result; every later run of
    // either fleet plane, on any seed, must reproduce it exactly.
    const std::string path = opt.results_dir + "/" + w.reference_key + "-" +
                             BuildFingerprint(opt.bin_dir) + ".txt";
    RunResult cached;
    const std::string text = ReadFile(path);
    if (FindResultBlock(text, key, &cached)) {
      const std::string writer = text.substr(2, text.find('\n') - 2);
      const std::string diff = CompareResults(
          std::string(w.name) + " vs " + writer, cached, result);
      if (!diff.empty()) reasons.push_back(diff);
      std::printf("cross-plane check: DeterministicEquals %s: %s\n",
                  writer.c_str(), diff.empty() ? "yes" : "NO");
    } else {
      const std::string tmp = path + ".tmp";
      std::ofstream(tmp) << "# " << w.name << " seed " << opt.seed << "\n"
                         << FormatResultBlock(key, result);
      std::rename(tmp.c_str(), path.c_str());
      std::printf("cross-plane check: result cached for the other plane\n");
    }
  }
  return reasons;
}

// ---------------------------------------------------------------------------
// Output

std::string CpuFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string found;
    for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
      if ((" " + line + " ").find(std::string(" ") + f + " ") !=
          std::string::npos) {
        found += std::string(found.empty() ? "" : ",") + f;
      }
    }
    return found.empty() ? "none" : found;
  }
  return "unknown";
}

void WriteSpans(const std::string& path, const std::vector<Episode>& eps) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (size_t e = 0; e < eps.size(); ++e) {
    if (!eps[e].traced || eps[e].spans.empty()) continue;
    const std::vector<Span> tree = RoundTree(eps[e]);
    for (size_t i = 0; i < tree.size(); ++i) {
      const Span& s = tree[i];
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": " << e << ", \"tid\": 0, \"ts\": "
          << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      if (arg == "--record") {
        opt->record = true;
        continue;
      }
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      opt->workload = value;
    } else if (key == "seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      opt->trace = value == "1";
    } else if (key == "bin_dir") {
      opt->bin_dir = value;
    } else if (key == "work_dir") {
      opt->work_dir = value;
    } else if (key == "reference") {
      opt->reference = value;
    } else if (key == "results_dir") {
      opt->results_dir = value;
    } else if (key == "spans_out") {
      opt->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  // The bench passes no --backend and pins no pool size through the
  // environment: the program's defaults are what is measured.
  unsetenv("FEDGTA_BACKEND");
  unsetenv("FEDGTA_NUM_THREADS");
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (opt.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr || opt.bin_dir.empty() || opt.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=<arxiv-sim|products-flat|"
                 "products-hier> --bin_dir=DIR --work_dir=DIR [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--reference=FILE] "
                 "[--results_dir=DIR] [--spans_out=FILE] [--record]\n");
    return 2;
  }

  const std::set<int> before = ListTasks();
  fedgta::SetGlobalThreadPoolSize(w->coord_threads);
  fedgta::GlobalThreadPoolSize();
  for (int tid : ListTasks()) {
    if (!before.count(tid)) g_pool_tids.push_back(tid);
  }

  std::printf("workload %s: %s\n", w->name, w->why);
  std::printf(
      "env: nproc=%ld cpu_flags=%s backend=%s pool_threads=%d "
      "child_threads=%d workers=%d aggregators=%d commit=%s seed=%llu "
      "rounds_per_episode=%d trace=%d\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuFlags().c_str(),
      fedgta::linalg::ActiveBackend().description().c_str(), w->coord_threads,
      w->child_threads, w->workers, w->aggregators, PERFBENCH_GIT_COMMIT,
      static_cast<unsigned long long>(opt.seed), w->rounds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  // Episodes until the measuring time is used up; at least two. A new
  // episode starts only if the last one would still fit.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point hard_stop = begin + std::chrono::seconds(150);
  std::vector<Episode> episodes;
  double last_s = 0.0;
  for (;;) {
    const Clock::time_point now = Clock::now();
    const double used = std::chrono::duration<double>(now - begin).count();
    if (episodes.size() >= 2 && used + last_s > opt.seconds) break;
    if (!episodes.empty() && now + std::chrono::duration<double>(last_s) >
                                 hard_stop) {
      break;
    }
    // A traced run alternates traced and untraced episodes.
    const bool traced = opt.trace && episodes.size() % 2 == 0;
    const Clock::time_point deadline =
        std::min(hard_stop, now + std::chrono::seconds(120));
    episodes.push_back(w->plane == Plane::kSimulation
                           ? RunSimulationEpisode(*w, opt.seed, traced)
                           : RunFleetEpisode(*w, opt.seed, traced,
                                             {opt.bin_dir, opt.work_dir},
                                             deadline));
    last_s = std::chrono::duration<double>(Clock::now() - now).count();
    if (!episodes.back().error.empty()) break;
  }

  std::vector<const Episode*> measured, traced, untraced;
  for (const Episode& ep : episodes) {
    measured.push_back(&ep);
    (ep.traced ? traced : untraced).push_back(&ep);
  }
  const EndToEnd e = SummarizeEndToEnd(*w, opt.trace ? untraced : measured);
  std::vector<std::string> reasons = CheckCorrectness(*w, opt, episodes, e);

  std::printf("episodes=%zu rounds=%zu (tail = p%.1f, %d of %d rounds above "
              "it)\n",
              episodes.size(), e.periods.size(), e.tail.percentile,
              e.tail.beyond, e.tail.samples);
  const std::vector<Metric> end_to_end = {
      {"round_s.p50", e.round_p50, "s"},
      {"round_s.tail", e.tail.value, "s"},
      {"updates_per_s", e.updates_per_s, "1/s"},
      {"setup_s", e.setup_s, "s"},
      {"test_acc", e.test_acc, "%"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"cpu_s_per_round", e.cpu_s_per_round, "s"},
  };
  const double failed_share =
      e.attempted > 0 ? static_cast<double>(e.failed) / e.attempted : 0.0;
  for (const Metric& m : end_to_end) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %16.6f %s\n", "wire_mb_per_round", e.wire_mb_per_round,
              "MB");
  std::printf("  %-28s %16.6f %s\n", "failed_share", failed_share, "ratio");

  std::vector<Metric> reported = end_to_end;
  if (opt.trace) {
    const EndToEnd traced_e = SummarizeEndToEnd(*w, traced);
    double layer_gap_s = 0.0;
    reported = SummarizeLayers(*w, traced, traced_e.round_p50 - e.round_p50,
                               &layer_gap_s);
    std::printf("layer attribution: client_phase + aggregate + eval + other "
                "= round period within %.3g s on every traced round\n",
                layer_gap_s);
    if (layer_gap_s > 1e-6) {
      reasons.push_back("per-layer times do not add up to the round period "
                        "(off by " + Num(layer_gap_s) + " s)");
    }
    std::printf("per-layer (%zu traced episodes; on the fleets "
                "fed.client_phase_s / core.aggregate_s / gnn.train_s / "
                "core.client_metrics_s are program-reported):\n",
                traced.size());
    for (const Metric& m : reported) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!opt.spans_out.empty()) WriteSpans(opt.spans_out, episodes);
  }
  for (const std::string& r : reasons) {
    std::printf("CORRECTNESS FAILURE: %s\n", r.c_str());
  }

  std::string json = "{\"correct\": ";
  json += reasons.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<int64_t>(1, e.attempted));
  json += ", \"failed\": " + std::to_string(e.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + reported[i].name +
            "\": {\"value\": " + Num(reported[i].value) + ", \"unit\": \"" +
            reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return reasons.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
