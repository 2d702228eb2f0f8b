// Hierarchical-vs-in-process determinism (DESIGN.md §5k): a FedGTA run
// driven through real regional aggregator processes — root + fedgta_aggregator
// children + fedgta_worker grandchildren over loopback TCP — must be
// bit-identical to the in-process Simulation of the same configuration.
// Also covers the relay plane (fedavg), the shardable-capability and async
// rejections, the root status endpoint's mid-tier table, and a bring-up
// that starts no worker before every aggregator has published its port.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fed/aggregator.h"
#include "fed/hierarchy.h"
#include "fed/remote_config.h"
#include "fed/role.h"
#include "fed/simulation.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// The root coordinator runs in a thread of this process while the worker
// tier is being launched, so every spawn prebuilds argv in the parent and
// the child touches nothing but execv (no allocation between fork and
// exec — the child may have inherited a held malloc lock).
pid_t SpawnProcess(const char* binary, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(binary, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

pid_t SpawnAggregator(int root_port, const std::string& port_file,
                      bool status_port) {
  std::vector<std::string> args = {FEDGTA_AGGREGATOR_BINARY,
                                   "--host=127.0.0.1",
                                   "--port=" + std::to_string(root_port),
                                   "--listen_port=0",
                                   "--port_file=" + port_file,
                                   "--connect_attempts=60",
                                   "--deadline_ms=60000",
                                   "--num_threads=2"};
  if (status_port) args.push_back("--status_port=0");
  return SpawnProcess(FEDGTA_AGGREGATOR_BINARY, std::move(args));
}

pid_t SpawnWorker(int agg_port) {
  return SpawnProcess(FEDGTA_WORKER_BINARY,
                      {FEDGTA_WORKER_BINARY, "--host=127.0.0.1",
                       "--port=" + std::to_string(agg_port),
                       "--connect_attempts=60", "--deadline_ms=60000",
                       "--num_threads=2"});
}

// "<worker_port>\n<agg_index>\n", published atomically once the
// aggregator's listener is bound.
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

struct HierarchicalOutcome {
  Result<SimulationResult> result = InternalError("not run");
  std::vector<int> exit_codes;  // aggregators first, then workers
  int root_status_port = -1;
  std::string final_status;  // root "status" reply after Run(), if serving
};

std::string QueryStatus(int port, const std::string& command) {
  Result<net::Socket> conn = net::Connect("127.0.0.1", port, 2000);
  EXPECT_TRUE(conn.ok()) << conn.status();
  if (!conn.ok()) return "";
  const std::string line = command + "\n";
  EXPECT_TRUE(conn->WriteFull(line.data(), line.size()).ok());
  std::string reply;
  char byte = 0;
  while (conn->ReadFull(&byte, 1).ok()) reply.push_back(byte);
  return reply;
}

int64_t CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

/// Listens, forks the aggregator tier, runs the root in a thread, launches
/// each shard's workers once its aggregator publishes a port file, and
/// reaps the whole process tree. With `workers_after_all_ports` no worker
/// starts before every aggregator's port file exists, as a fleet launcher
/// that needs the full port map first would do.
HierarchicalOutcome RunHierarchical(const RemoteFedConfig& config,
                                    bool agg_status_ports = false,
                                    bool workers_after_all_ports = false) {
  HierarchicalOutcome out;
  fed::RootCoordinator root(config);
  if (const Status status = root.Listen(0); !status.ok()) {
    out.result = status;
    return out;
  }
  out.root_status_port = root.status_port();

  const std::string dir = testing::TempDir();
  std::vector<std::string> port_files;
  std::vector<pid_t> pids;
  for (int a = 0; a < config.num_aggregators; ++a) {
    port_files.push_back(dir + "/fedgta_hier_agg_" + std::to_string(getpid()) +
                         "_" + std::to_string(a) + ".port");
    std::remove(port_files.back().c_str());
    pids.push_back(
        SpawnAggregator(root.port(), port_files.back(), agg_status_ports));
  }

  Result<SimulationResult> result = InternalError("root thread never ran");
  std::atomic<bool> root_done{false};
  std::thread root_thread([&] {
    result = root.Run();
    root_done.store(true);
  });

  // The aggregators publish their worker ports only after the root's
  // ShardAssign, so polling doubles as the handshake barrier. A file that
  // never appears surfaces as the root's accept timeout through `result`.
  const fed::Topology topo(config.split.num_clients, config.num_aggregators,
                           config.num_workers);
  std::vector<int> ports(port_files.size(), 0);
  std::vector<int> agg_index(port_files.size(), -1);
  std::vector<bool> launched(port_files.size(), false);
  size_t published = 0;
  size_t remaining = port_files.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (remaining > 0 && !root_done.load() &&
         std::chrono::steady_clock::now() < deadline) {
    for (size_t f = 0; f < port_files.size(); ++f) {
      if (ports[f] != 0 ||
          !ReadPortFile(port_files[f], &ports[f], &agg_index[f])) {
        continue;
      }
      EXPECT_LT(agg_index[f], config.num_aggregators);
      ++published;
    }
    const bool may_launch =
        !workers_after_all_ports || published == port_files.size();
    for (size_t f = 0; f < port_files.size() && may_launch; ++f) {
      if (launched[f] || ports[f] == 0) continue;
      for (int w = 0; w < topo.WorkerShard(agg_index[f]).size(); ++w) {
        pids.push_back(SpawnWorker(ports[f]));
      }
      launched[f] = true;
      --remaining;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  root_thread.join();
  out.result = std::move(result);
  if (out.result.ok()) {
    EXPECT_EQ(remaining, 0u) << "aggregator(s) never published a port file";
  }
  if (out.root_status_port > 0) {
    // Queried after the run: the aggregator processes are about to exit
    // (or already have), which is exactly the dead-mid-tier view the
    // status satellite wants visible.
    out.final_status = QueryStatus(out.root_status_port, "status");
  }
  // A failed root leaves its tree nothing to do, but an aggregator still
  // waiting for its ShardAssign would sit out its own deadline.
  if (!out.result.ok()) {
    for (pid_t pid : pids) kill(pid, SIGKILL);
  }
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    out.exit_codes.push_back(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  }
  for (const std::string& f : port_files) std::remove(f.c_str());
  return out;
}

/// The same run, in process — the reference the hierarchy must reproduce.
SimulationResult RunInProcess(const RemoteFedConfig& config) {
  FederatedDataset data = MaterializeFederatedDataset(
      config.dataset, config.seed, config.split, config.federated);
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config.strategy, config.strategy_options);
  EXPECT_TRUE(strategy.ok()) << strategy.status();
  SimulationConfig sim = config.sim;
  sim.seed = config.seed;
  Simulation simulation(&data, config.model, config.optimizer,
                        std::move(*strategy), sim);
  return simulation.Run();
}

void ExpectBitIdentical(const SimulationResult& remote,
                        const SimulationResult& local) {
  EXPECT_EQ(remote.best_test_accuracy, local.best_test_accuracy);
  EXPECT_EQ(remote.final_test_accuracy, local.final_test_accuracy);
  EXPECT_EQ(remote.total_upload_floats, local.total_upload_floats);
  EXPECT_EQ(remote.total_download_floats, local.total_download_floats);
  EXPECT_EQ(remote.total_dropped_clients, local.total_dropped_clients);
  EXPECT_EQ(remote.total_straggler_clients, local.total_straggler_clients);
  EXPECT_EQ(remote.total_crashed_clients, local.total_crashed_clients);
  ASSERT_EQ(remote.curve.size(), local.curve.size());
  for (size_t i = 0; i < remote.curve.size(); ++i) {
    const RoundStats& r = remote.curve[i];
    const RoundStats& l = local.curve[i];
    EXPECT_EQ(r.round, l.round);
    EXPECT_EQ(r.test_accuracy, l.test_accuracy) << "round " << r.round;
    EXPECT_EQ(r.val_accuracy, l.val_accuracy) << "round " << r.round;
    EXPECT_EQ(r.train_loss, l.train_loss) << "round " << r.round;
    EXPECT_EQ(r.upload_floats, l.upload_floats) << "round " << r.round;
    EXPECT_EQ(r.download_floats, l.download_floats) << "round " << r.round;
    EXPECT_EQ(r.dropped_clients, l.dropped_clients);
    EXPECT_EQ(r.straggler_clients, l.straggler_clients);
    EXPECT_EQ(r.crashed_clients, l.crashed_clients);
  }
}

RemoteFedConfig BaseConfig() {
  RemoteFedConfig config;
  config.dataset = "cora";
  config.seed = 7;
  config.split.num_clients = 10;
  config.model.type = ModelType::kSgc;
  config.model.hidden = 16;
  config.model.k = 2;
  config.strategy = "fedgta";
  config.sim.rounds = 3;
  config.sim.local_epochs = 2;
  config.sim.eval_every = 1;
  config.num_workers = 4;
  config.num_aggregators = 2;
  config.rpc.deadline_ms = 120000;
  config.accept_timeout_ms = 120000;
  return config;
}

TEST(HierarchyTest, FedGtaOverTwoAggregatorsIsBitIdenticalToSimulation) {
  // The acceptance topology: root + 2 aggregators + 4 workers, with the
  // root and mid-tier status endpoints live.
  RemoteFedConfig config = BaseConfig();
  config.status_port = 0;
  const int64_t root_pairs_before =
      CounterValue("fedgta.similarity.pairs_exact");
  const HierarchicalOutcome out =
      RunHierarchical(config, /*agg_status_ports=*/true);
  const int64_t root_pairs =
      CounterValue("fedgta.similarity.pairs_exact") - root_pairs_before;
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  const int64_t local_pairs_before =
      CounterValue("fedgta.similarity.pairs_exact");
  const SimulationResult local = RunInProcess(config);
  const int64_t local_pairs =
      CounterValue("fedgta.similarity.pairs_exact") - local_pairs_before;
  ExpectBitIdentical(*out.result, local);
  EXPECT_GT(local.final_test_accuracy, 0.2);
  // Eq. 6 runs on the aggregators; the root's own pair counter must still
  // read what the in-process run counts.
  EXPECT_EQ(root_pairs, local_pairs);
  EXPECT_GT(root_pairs, 0);

  // Mid-tier visibility (satellite): the root's status table names every
  // aggregator with its shard bounds, and the live probe notices that the
  // mid-tier processes are gone after shutdown.
  const std::string& status = out.final_status;
  EXPECT_NE(status.find("fedgta root status"), std::string::npos) << status;
  EXPECT_NE(status.find("aggregators: 2"), std::string::npos) << status;
  EXPECT_NE(status.find("aggregator 0: healthy shard=[0,5) clients=5 "
                        "workers=2"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("aggregator 1: healthy shard=[5,10) clients=5 "
                        "workers=2"),
            std::string::npos)
      << status;
}

TEST(HierarchyTest, WorkersStartedAfterEveryAggregatorPortIsBitIdentical) {
  // A launcher that needs every aggregator's worker port before it starts
  // any worker. The root must assign all shards before it waits on any
  // ShardReady; otherwise the first aggregator's worker accept times out
  // (short here, so a regression fails in seconds rather than hanging).
  RemoteFedConfig config = BaseConfig();
  config.accept_timeout_ms = 10000;
  const HierarchicalOutcome out =
      RunHierarchical(config, /*agg_status_ports=*/false,
                      /*workers_after_all_ports=*/true);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  std::string diff;
  EXPECT_TRUE(
      fed::DeterministicEquals(*out.result, RunInProcess(config), &diff))
      << diff;
}

TEST(HierarchyTest, FailureInjectionAndSamplingStayIdentical) {
  // Dropouts, stragglers, crashes, and partial participation crossing
  // shard boundaries: the shard partition of each round's sampled
  // participants must reproduce the flat run's fate bookkeeping exactly.
  RemoteFedConfig config = BaseConfig();
  config.seed = 11;
  config.sim.participation = 0.6;
  config.sim.failure.dropout_rate = 0.25;
  config.sim.failure.straggler_rate = 0.15;
  config.sim.failure.crash_rate = 0.15;
  const HierarchicalOutcome out = RunHierarchical(config);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  // Sparse evaluation: rounds 3 and 5 only (every third, plus the final).
  RemoteFedConfig sparse = config;
  sparse.sim.rounds = 5;
  sparse.sim.eval_every = 3;
  const HierarchicalOutcome sparse_out = RunHierarchical(sparse);
  ASSERT_TRUE(sparse_out.result.ok()) << sparse_out.result.status();
  const SimulationResult local = RunInProcess(config);
  EXPECT_GT(local.total_dropped_clients + local.total_straggler_clients +
                local.total_crashed_clients,
            0);
  ExpectBitIdentical(*out.result, local);
  const SimulationResult sparse_local = RunInProcess(sparse);
  ASSERT_EQ(sparse_local.curve.size(), 2u);
  EXPECT_EQ(sparse_local.curve[0].round, 3);
  std::string diff;
  EXPECT_TRUE(
      fed::DeterministicEquals(*sparse_out.result, sparse_local, &diff))
      << diff;
}

TEST(HierarchyTest, RelayedFedAvgIsBitIdenticalToSimulation) {
  // fedavg does not upload topology metrics, so the aggregators collapse
  // to relay hops: the root aggregates centrally and the mid-tier only
  // fans the global model out and the survivor weights back up.
  RemoteFedConfig config = BaseConfig();
  config.strategy = "fedavg";
  config.sim.rounds = 2;
  const HierarchicalOutcome out = RunHierarchical(config);
  ASSERT_TRUE(out.result.ok()) << out.result.status();
  for (int code : out.exit_codes) EXPECT_EQ(code, 0);
  ExpectBitIdentical(*out.result, RunInProcess(config));
}

TEST(HierarchyTest, TrainShardDoneWithMisalignedMomentsDropsTheShard) {
  // A scripted aggregator answers TrainShard with one moment row too few.
  // The root must refuse the reply (the shard's participants drop, as for
  // a dead aggregator) rather than build a survivor frame from it, so no
  // SetBuild ever reaches the shard.
  RemoteFedConfig config = BaseConfig();
  config.num_aggregators = 1;
  config.num_workers = 1;
  config.sim.rounds = 2;
  auto root = std::make_unique<fed::RootCoordinator>(config);
  ASSERT_TRUE(root->Listen(0).ok());
  const int port = root->port();
  std::vector<uint32_t> kinds_seen;
  std::thread fake([&] {
    Result<net::Socket> dialed = net::Connect("127.0.0.1", port, 5000);
    ASSERT_TRUE(dialed.ok()) << dialed.status();
    net::Socket sock = std::move(*dialed);
    net::HelloMsg hello;
    hello.node_role = static_cast<uint32_t>(net::NodeRole::kAggregator);
    ASSERT_TRUE(net::SendMessage(sock, hello).ok());
    const auto reply = [&](const net::RoutedMsg& msg) {
      ASSERT_TRUE(net::SendMessage(sock, msg).ok());
    };
    fed::ShardReadyBody ready;
    ready.param_count = 4;
    ready.init_params.assign(4, 0.5f);
    net::RoutedMsg req;
    while (net::ExpectMessage(sock, &req).ok()) {
      kinds_seen.push_back(req.kind);
      switch (static_cast<net::EnvelopeKind>(req.kind)) {
        case net::EnvelopeKind::kShardAssign:
          reply(fed::MakeEnvelope(net::EnvelopeKind::kShardReady, 0, ready));
          break;
        case net::EnvelopeKind::kInitModel:
          reply(fed::MakeEnvelope(net::EnvelopeKind::kGroupAck, 0));
          break;
        case net::EnvelopeKind::kTrainShard: {
          fed::TrainShardBody train;
          serialize::Reader r(req.body);
          ASSERT_TRUE(train.Decode(&r).ok());
          const size_t n = train.participants.size();
          fed::TrainShardDoneBody done;
          done.rpc_ok.assign(n, 1);
          done.seconds.assign(n, 0.0);
          done.losses.assign(n, 1.0);
          done.num_samples.assign(n, 1);
          done.confidences.assign(n, 1.0);
          done.moments.assign(n - 1, std::vector<float>(3, 1.0f));
          reply(fed::MakeEnvelope(net::EnvelopeKind::kTrainShardDone,
                                  req.round, done));
          break;
        }
        default:
          return;  // SetBuild or anything else: stop answering
      }
    }
  });
  const Result<SimulationResult> result = root->Run();
  root.reset();  // closes the link, ending the fake's serve loop
  fake.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_dropped_clients, 2 * config.split.num_clients);
  const std::vector<uint32_t> expected = {
      static_cast<uint32_t>(net::EnvelopeKind::kShardAssign),
      static_cast<uint32_t>(net::EnvelopeKind::kInitModel),
      static_cast<uint32_t>(net::EnvelopeKind::kTrainShard)};
  EXPECT_EQ(kinds_seen, expected);
}

TEST(HierarchyTest, UnknownShardAssignCodecIsRefusedBeforeBinding) {
  // ShardAssign's codec comes off the wire. A scripted root names a codec
  // no build has: the aggregator must refuse it with InvalidArgument and
  // an ErrorMsg before its worker listener binds — no port file, and no
  // abort once a worker connects.
  Result<net::ServerSocket> listener = net::ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const std::string port_file = testing::TempDir() + "/fedgta_bad_codec_" +
                                std::to_string(getpid()) + ".port";
  std::remove(port_file.c_str());
  Status root_saw = OkStatus();
  std::thread fake_root([&] {
    Result<net::Socket> sock = listener->Accept(5000);
    ASSERT_TRUE(sock.ok()) << sock.status();
    ASSERT_TRUE(sock->SetRecvTimeout(30000).ok());
    net::HelloMsg hello;
    ASSERT_TRUE(
        net::ReceiveHello(*sock, net::NodeRole::kAggregator, &hello).ok());
    RemoteFedConfig config = BaseConfig();
    fed::ShardAssignBody assign;
    assign.config = ToWireConfig(config);
    assign.shard_begin = 0;
    assign.shard_end = config.split.num_clients;
    assign.num_workers = 1;
    assign.compress = "bogus";
    assign.accept_timeout_ms = 2000;
    ASSERT_TRUE(net::SendMessage(*sock, fed::MakeEnvelope(
                                            net::EnvelopeKind::kShardAssign,
                                            0, assign))
                    .ok());
    net::RoutedMsg ready;
    root_saw = net::ExpectMessage(*sock, &ready);
  });
  fed::AggregatorOptions options;
  options.port = listener->port();
  options.port_file = port_file;
  options.rpc.deadline_ms = 5000;
  const Status ran = fed::RegionalAggregator(options).Run();
  fake_root.join();
  EXPECT_EQ(ran.code(), StatusCode::kInvalidArgument) << ran;
  EXPECT_EQ(root_saw.code(), StatusCode::kFailedPrecondition) << root_saw;
  EXPECT_NE(root_saw.message().find("unknown compress codec 'bogus'"),
            std::string::npos)
      << root_saw;
  EXPECT_FALSE(std::ifstream(port_file).good()) << "port file was published";
  std::remove(port_file.c_str());
}

TEST(HierarchyTest, NonShardableStrategyIsRejectedBeforeAccepting) {
  // `local` is remote-executable on the flat plane but does not declare
  // Capabilities().shardable — the hierarchical root must refuse it before
  // any aggregator is accepted.
  RemoteFedConfig config = BaseConfig();
  config.strategy = "local";
  fed::RootCoordinator root(config);
  ASSERT_TRUE(root.Listen(0).ok());
  const Result<SimulationResult> result = root.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("shard"), std::string::npos)
      << result.status();
}

TEST(HierarchyTest, AsyncRuntimeIsRejectedAtListen) {
  RemoteFedConfig config = BaseConfig();
  config.sim.async = true;
  config.sim.staleness_tau = 1;
  fed::RootCoordinator root(config);
  const Status status = root.Listen(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyTest, TopologyRejectsMoreAggregatorsThanWorkers) {
  RemoteFedConfig config = BaseConfig();
  config.num_aggregators = 5;
  config.num_workers = 4;
  fed::RootCoordinator root(config);
  const Status status = root.Listen(0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fedgta
