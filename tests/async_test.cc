// Async federation runtime (DESIGN.md §5i): AsyncUpdateQueue bookkeeping
// and admission rules, the pure straggler-delay schedule, the staleness
// discount, and the in-process oracle — an async Simulation::Run (the
// RoundEngine's async admission path) must be bit-identical to the
// synchronous run at tau = 0 and must stale-drop exactly the updates the
// FailurePlan predicts at tau > 0.

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/federated.h"
#include "fed/executor.h"
#include "fed/failure.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "graph/generator.h"

namespace fedgta {
namespace {

AsyncUpdate Update(int dispatch, int arrival, int client_id) {
  AsyncUpdate u;
  u.dispatch_round = dispatch;
  u.arrival_round = arrival;
  u.result.client_id = client_id;
  u.result.num_samples = 100;
  u.result.loss = 1.0;
  u.result.metrics.confidence = 0.8;
  return u;
}

TEST(AsyncQueueTest, WaitRuleBlocksUntilEveryDispatchIsAccounted) {
  AsyncUpdateQueue queue;
  queue.MarkDispatched(1, 2);
  queue.Push(Update(1, 1, /*client_id=*/0));

  std::atomic<bool> released{false};
  std::thread waiter([&queue, &released] {
    queue.WaitDispatchedThrough(1);
    released.store(true);
  });
  // One of round 1's two dispatches is still unaccounted: the waiter must
  // stay parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load());
  queue.MarkAccounted(1);  // e.g. a dropout
  waiter.join();
  EXPECT_TRUE(released.load());

  // Rounds never dispatched — including rounds far past the last one — are
  // trivially satisfied once everything in flight is accounted.
  queue.WaitDispatchedThrough(100);
}

TEST(AsyncQueueTest, DrainAdmitsDedupsAndCountsStale) {
  AsyncUpdateQueue queue;
  queue.MarkDispatched(0, 1);
  queue.MarkDispatched(1, 2);
  queue.MarkDispatched(2, 2);
  // Client 5 delivered twice within the window: only the freshest survives.
  queue.Push(Update(/*dispatch=*/1, /*arrival=*/1, /*client_id=*/5));
  queue.Push(Update(/*dispatch=*/2, /*arrival=*/2, /*client_id=*/5));
  // Client 7's update is two rounds stale at the drain — over tau = 1.
  queue.Push(Update(/*dispatch=*/0, /*arrival=*/2, /*client_id=*/7));
  // Client 2's straggler arrival lies in the future: not drained yet.
  queue.Push(Update(/*dispatch=*/1, /*arrival=*/4, /*client_id=*/2));
  // Client 1 is fresh this round.
  queue.Push(Update(/*dispatch=*/2, /*arrival=*/2, /*client_id=*/1));
  EXPECT_EQ(queue.depth(), 5u);

  AsyncUpdateQueue::Drain drain =
      queue.DrainRound(/*round=*/2, /*tau=*/1, /*final_round=*/false);
  ASSERT_EQ(drain.admitted.size(), 2u);
  // Sorted by client id, freshest dispatch per client.
  EXPECT_EQ(drain.admitted[0].result.client_id, 1);
  EXPECT_EQ(drain.admitted[1].result.client_id, 5);
  EXPECT_EQ(drain.admitted[1].dispatch_round, 2);
  EXPECT_EQ(drain.superseded, 1);
  EXPECT_EQ(drain.stale_dropped, 1);
  EXPECT_EQ(drain.undelivered, 0);
  EXPECT_EQ(queue.depth(), 1u);  // client 2 still buffered

  // The run ends at round 3; client 2's arrival round 4 never comes. The
  // final drain classifies it as undelivered, not stale.
  AsyncUpdateQueue::Drain final_drain =
      queue.DrainRound(/*round=*/3, /*tau=*/1, /*final_round=*/true);
  EXPECT_EQ(final_drain.admitted.size(), 0u);
  EXPECT_EQ(final_drain.stale_dropped, 0);
  EXPECT_EQ(final_drain.undelivered, 1);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(StragglerDelayTest, PureAndWithinBounds) {
  FailureConfig config;
  config.straggler_rate = 0.5;
  config.seed = 0xFA11;
  const FailurePlan plan(config);
  const FailurePlan replay(config);
  bool saw_distinct = false;
  int first = -1;
  for (int round = 1; round <= 50; ++round) {
    for (int client = 0; client < 10; ++client) {
      const int delay = plan.StragglerDelay(round, client);
      EXPECT_GE(delay, 1);
      EXPECT_LE(delay, 3);
      // Pure in (seed, round, client): a second plan over the same config
      // sees the identical schedule.
      EXPECT_EQ(delay, replay.StragglerDelay(round, client));
      if (first == -1) first = delay;
      if (delay != first) saw_distinct = true;
    }
  }
  EXPECT_TRUE(saw_distinct) << "delay schedule is constant";

  FailureConfig reseeded = config;
  reseeded.seed = 0xBEEF;
  const FailurePlan other(reseeded);
  bool differs = false;
  for (int round = 1; round <= 50 && !differs; ++round) {
    for (int client = 0; client < 10 && !differs; ++client) {
      differs = other.StragglerDelay(round, client) !=
                plan.StragglerDelay(round, client);
    }
  }
  EXPECT_TRUE(differs) << "delay schedule ignores the seed";
}

TEST(StalenessDiscountTest, ExactNoOpAtZeroStaleness) {
  LocalResult result;
  result.num_samples = 137;
  result.metrics.confidence = 0.8125;
  const LocalResult before = result;
  ApplyStalenessDiscount(/*staleness=*/0, /*decay=*/0.5, &result);
  EXPECT_EQ(result.num_samples, before.num_samples);
  EXPECT_EQ(result.metrics.confidence, before.metrics.confidence);
}

TEST(StalenessDiscountTest, ScalesConfidenceAndFloorsSamples) {
  LocalResult result;
  result.num_samples = 100;
  result.metrics.confidence = 0.8;
  ApplyStalenessDiscount(/*staleness=*/2, /*decay=*/0.5, &result);
  EXPECT_DOUBLE_EQ(result.metrics.confidence, 0.8 * 0.25);
  EXPECT_EQ(result.num_samples, 25);

  // The data-size weight never vanishes: a deeply stale update still
  // carries at least one sample.
  LocalResult tiny;
  tiny.num_samples = 2;
  tiny.metrics.confidence = 0.5;
  ApplyStalenessDiscount(/*staleness=*/10, /*decay=*/0.25, &tiny);
  EXPECT_EQ(tiny.num_samples, 1);
  EXPECT_GT(tiny.metrics.confidence, 0.0);
}

// --- In-process oracle -----------------------------------------------------

FederatedDataset MakeTinyFederated(int num_clients, uint64_t seed) {
  SbmConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_classes = 4;
  cfg.avg_degree = 6.0;
  cfg.homophily = 0.85;
  cfg.regions_per_class = 2;
  Rng rng(seed);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Dataset ds;
  ds.name = "tiny";
  ds.graph = std::move(lg.graph);
  ds.labels = std::move(lg.labels);
  ds.num_classes = 4;
  FeatureConfig fcfg;
  fcfg.dim = 8;
  fcfg.noise_scale = 1.5f;
  ds.features = GenerateFeatures(ds.labels, 4, fcfg, rng);
  StratifiedSplit(ds.labels, 4, 0.3, 0.2, rng, &ds.train_idx, &ds.val_idx,
                  &ds.test_idx);
  SplitConfig split;
  split.method = SplitMethod::kLouvain;
  split.num_clients = num_clients;
  Rng srng(seed ^ 7);
  return BuildFederatedDataset(std::move(ds), split, srng);
}

ModelConfig TinyModel() {
  ModelConfig cfg;
  cfg.type = ModelType::kSgc;
  cfg.k = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

SimulationConfig BaseSimConfig() {
  SimulationConfig sim;
  sim.rounds = 4;
  sim.local_epochs = 2;
  sim.eval_every = 1;
  sim.seed = 99;
  sim.failure.straggler_rate = 0.3;
  sim.failure.dropout_rate = 0.1;
  sim.failure.seed = 3;
  return sim;
}

SimulationResult RunWith(const SimulationConfig& sim) {
  FederatedDataset fed = MakeTinyFederated(/*num_clients=*/6, /*seed=*/5);
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedgta", sopt);
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  return simulation.Run();
}

TEST(AsyncSimulationTest, TauZeroIsBitIdenticalToSynchronousRun) {
  const SimulationConfig sync_sim = BaseSimConfig();
  const SimulationResult sync_run = RunWith(sync_sim);

  SimulationConfig async_sim = BaseSimConfig();
  async_sim.async = true;
  async_sim.staleness_tau = 0;
  const SimulationResult async_run = RunWith(async_sim);

  // The whole deterministic surface must match bit for bit: at tau = 0 the
  // wait rule is the full barrier and every admission decision coincides
  // with the synchronous survivor filter.
  EXPECT_EQ(async_run.best_test_accuracy, sync_run.best_test_accuracy);
  EXPECT_EQ(async_run.final_test_accuracy, sync_run.final_test_accuracy);
  EXPECT_EQ(async_run.total_upload_floats, sync_run.total_upload_floats);
  EXPECT_EQ(async_run.total_download_floats, sync_run.total_download_floats);
  EXPECT_EQ(async_run.total_dropped_clients, sync_run.total_dropped_clients);
  EXPECT_EQ(async_run.total_straggler_clients,
            sync_run.total_straggler_clients);
  EXPECT_EQ(async_run.total_crashed_clients, sync_run.total_crashed_clients);
  ASSERT_EQ(async_run.curve.size(), sync_run.curve.size());
  for (size_t i = 0; i < sync_run.curve.size(); ++i) {
    const RoundStats& a = async_run.curve[i];
    const RoundStats& s = sync_run.curve[i];
    EXPECT_EQ(a.round, s.round);
    EXPECT_EQ(a.test_accuracy, s.test_accuracy) << "round " << a.round;
    EXPECT_EQ(a.val_accuracy, s.val_accuracy) << "round " << a.round;
    EXPECT_EQ(a.train_loss, s.train_loss) << "round " << a.round;
    EXPECT_EQ(a.upload_floats, s.upload_floats);
    EXPECT_EQ(a.download_floats, s.download_floats);
    EXPECT_EQ(a.dropped_clients, s.dropped_clients);
    EXPECT_EQ(a.straggler_clients, s.straggler_clients);
    EXPECT_EQ(a.crashed_clients, s.crashed_clients);
  }
  // The run saw actual straggler traffic (otherwise this test is vacuous).
  EXPECT_GT(sync_run.total_straggler_clients, 0);
  // At tau = 0 every straggler update that arrives within the run is stale.
  EXPECT_GT(async_run.total_stale_dropped_updates, 0);
}

TEST(AsyncSimulationTest, StaleDropsMatchThePlanSchedule) {
  SimulationConfig sim;
  sim.rounds = 5;
  sim.local_epochs = 1;
  sim.eval_every = 5;
  sim.seed = 42;
  sim.failure.straggler_rate = 0.4;
  sim.failure.seed = 11;
  sim.async = true;
  sim.staleness_tau = 2;

  const int n_clients = 6;
  const FailurePlan plan(sim.failure);
  // Full participation, stragglers only: the admission outcome of every
  // dispatched update is a closed-form function of the plan. The drain at
  // round t sees the round-t healthy updates plus every straggler whose
  // r + delay lands on t; delay > tau is a stale drop, an arrival past the
  // end of the run is undelivered, and among a client's admissible updates
  // in one drain only the freshest counts as admitted (rest superseded).
  int64_t expect_admitted = 0;
  int64_t expect_stale = 0;
  for (int t = 1; t <= sim.rounds; ++t) {
    std::map<int, int> freshest;  // client -> freshest admissible dispatch
    for (int client = 0; client < n_clients; ++client) {
      if (plan.FateOf(t, client) == ClientFate::kHealthy) {
        freshest[client] = t;
      }
    }
    for (int r = 1; r <= t; ++r) {
      for (int client = 0; client < n_clients; ++client) {
        if (plan.FateOf(r, client) != ClientFate::kStraggler) continue;
        const int delay = plan.StragglerDelay(r, client);
        if (r + delay != t) continue;
        if (delay > sim.staleness_tau) {
          ++expect_stale;
          continue;
        }
        auto [it, inserted] = freshest.emplace(client, r);
        if (!inserted && it->second < r) it->second = r;
      }
    }
    expect_admitted += static_cast<int64_t>(freshest.size());
  }
  EXPECT_GT(expect_stale, 0) << "seed produced no over-tau stragglers";

  FederatedDataset fed = MakeTinyFederated(n_clients, /*seed=*/5);
  StrategyOptions sopt;
  auto strategy = MakeStrategy("fedavg", sopt);
  Simulation simulation(&fed, TinyModel(), OptimizerConfig{},
                        std::move(*strategy), sim);
  const SimulationResult result = simulation.Run();

  EXPECT_EQ(result.total_admitted_updates, expect_admitted);
  EXPECT_EQ(result.total_stale_dropped_updates, expect_stale);
  EXPECT_GT(result.final_test_accuracy, 0.2);
}

}  // namespace
}  // namespace fedgta
