// Tests for the §5 future-work extensions (feature moments, adaptive ε),
// communication accounting, and the auxiliary metrics added on top of the
// paper's core algorithm.

#include <cmath>

#include <gtest/gtest.h>

#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/scaffold.h"
#include "fed/simulation.h"
#include "graph/generator.h"
#include "linalg/ops.h"
#include "nn/loss.h"

namespace fedgta {
namespace {

LabeledGraph SmallGraph(uint64_t seed) {
  SbmConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_classes = 4;
  cfg.avg_degree = 6.0;
  Rng rng(seed);
  return GeneratePlantedPartition(cfg, rng);
}

TEST(FeatureMomentsTest, ExtendsMomentVector) {
  LabeledGraph lg = SmallGraph(1);
  Rng rng(2);
  Matrix logits(120, 4);
  logits.GaussianInit(rng, 1.0f);
  Matrix features(120, 32);
  features.GaussianInit(rng, 1.0f);

  FedGtaOptions base;
  base.k = 3;
  base.moment_order = 2;
  const ClientMetrics plain =
      ComputeClientMetrics(lg.graph, logits, base, &features);
  EXPECT_EQ(plain.moments.size(), 3u * 2u * 4u);

  FedGtaOptions extended = base;
  extended.use_feature_moments = true;
  extended.feature_moment_dims = 8;
  const ClientMetrics with_features =
      ComputeClientMetrics(lg.graph, logits, extended, &features);
  // label block (k*K*c) + feature block (k*K*d).
  EXPECT_EQ(with_features.moments.size(), 3u * 2u * 4u + 3u * 2u * 8u);
  for (float v : with_features.moments) EXPECT_TRUE(std::isfinite(v));
}

TEST(FeatureMomentsTest, CapsAtFeatureDim) {
  LabeledGraph lg = SmallGraph(3);
  Rng rng(4);
  Matrix logits(120, 4);
  logits.GaussianInit(rng, 1.0f);
  Matrix features(120, 5);  // fewer dims than the cap
  features.GaussianInit(rng, 1.0f);
  FedGtaOptions options;
  options.k = 2;
  options.moment_order = 2;
  options.use_feature_moments = true;
  options.feature_moment_dims = 16;
  const ClientMetrics metrics =
      ComputeClientMetrics(lg.graph, logits, options, &features);
  EXPECT_EQ(metrics.moments.size(), 2u * 2u * 4u + 2u * 2u * 5u);
}

TEST(FeatureMomentsTest, NullFeaturesFallBackToLabelsOnly) {
  LabeledGraph lg = SmallGraph(5);
  Rng rng(6);
  Matrix logits(120, 4);
  logits.GaussianInit(rng, 1.0f);
  FedGtaOptions options;
  options.use_feature_moments = true;
  const ClientMetrics metrics =
      ComputeClientMetrics(lg.graph, logits, options, nullptr);
  EXPECT_EQ(metrics.moments.size(),
            static_cast<size_t>(options.k) * options.moment_order * 4u);
}

TEST(FeatureMomentsTest, BlocksAreNormalized) {
  // With the extension on, the label block is L2-normalized, so two clients
  // with proportional label moments but different feature distributions are
  // separated by the feature block.
  LabeledGraph lg = SmallGraph(7);
  Rng rng(8);
  Matrix logits(120, 4);
  logits.GaussianInit(rng, 1.0f);
  Matrix features_a(120, 8);
  features_a.GaussianInit(rng, 1.0f);
  Matrix features_b = features_a;
  features_b *= -1.0f;  // opposite feature geometry
  FedGtaOptions options;
  options.use_feature_moments = true;
  options.feature_moment_dims = 8;
  const ClientMetrics a =
      ComputeClientMetrics(lg.graph, logits, options, &features_a);
  const ClientMetrics b =
      ComputeClientMetrics(lg.graph, logits, options, &features_b);
  // Label blocks identical, feature blocks differ.
  const double sim = CosineSimilarity(a.moments, b.moments);
  EXPECT_LT(sim, 0.99);
  EXPECT_GT(sim, -0.99);
}

TEST(SimilarityQuantileTest, MatchesSortedOrder) {
  SimilarityBlock block;
  block.participants = {0, 1, 2};
  block.values = Matrix(3, 3, 0.0f);
  Matrix& sim = block.values;
  sim(0, 1) = sim(1, 0) = 0.2f;
  sim(0, 2) = sim(2, 0) = 0.8f;
  sim(1, 2) = sim(2, 1) = 0.5f;
  EXPECT_FLOAT_EQ(SimilarityQuantile(block, 0.0), 0.2f);
  EXPECT_FLOAT_EQ(SimilarityQuantile(block, 0.5), 0.5f);
  EXPECT_FLOAT_EQ(SimilarityQuantile(block, 1.0), 0.8f);
  SimilarityBlock single;
  single.participants = {0};
  single.values = Matrix(1, 1, 1.0f);
  EXPECT_DOUBLE_EQ(SimilarityQuantile(single, 0.5), 0.0);
}

TEST(AdaptiveEpsilonTest, MedianSplitsHeterogeneousClients) {
  // Two coherent pairs with orthogonal signatures: the adaptive median
  // threshold must separate the pairs without any hand-tuned ε.
  std::vector<ClientMetrics> metrics(4);
  metrics[0].moments = {1.0f, 0.0f, 0.05f};
  metrics[1].moments = {0.9f, 0.1f, 0.0f};
  metrics[2].moments = {0.0f, 1.0f, 0.05f};
  metrics[3].moments = {0.1f, 0.9f, 0.0f};
  for (auto& m : metrics) m.confidence = 1.0;
  std::vector<std::vector<float>> params(4, std::vector<float>{1.0f});
  std::vector<int64_t> sizes(4, 10);
  std::vector<std::vector<float>> personalized(4);
  std::vector<std::vector<int>> sets;
  FedGtaOptions options;
  options.adaptive_epsilon = true;
  options.adaptive_quantile = 0.5;
  options.epsilon = -123.0;  // must be ignored
  FedGtaAggregate(metrics, params, sizes, {0, 1, 2, 3}, options,
                  &personalized, &sets);
  EXPECT_EQ(sets[0].size(), 2u);
  EXPECT_EQ(sets[2].size(), 2u);
  EXPECT_TRUE((sets[0] == std::vector<int>{0, 1}));
  EXPECT_TRUE((sets[2] == std::vector<int>{2, 3}));
}

TEST(CommunicationTest, DefaultCountsWeightsAndMetrics) {
  FedAvgStrategy strategy;
  strategy.Initialize(2, {1, 1}, {0.0f, 0.0f, 0.0f});
  std::vector<LocalResult> results(2);
  results[0].params = {1.0f, 2.0f, 3.0f};
  results[1].params = {1.0f, 2.0f, 3.0f};
  results[1].metrics.moments = {0.5f, 0.5f};  // FedGTA-style upload
  const auto stats = strategy.RoundCommunication(results);
  EXPECT_EQ(stats.download_floats, 6);
  // 3 + (3 + 2 moments + 1 confidence) = 9.
  EXPECT_EQ(stats.upload_floats, 9);
}

TEST(CommunicationTest, ScaffoldDoublesTraffic) {
  ScaffoldStrategy strategy(0.01f);
  strategy.Initialize(2, {1, 1}, {0.0f, 0.0f});
  std::vector<LocalResult> results(1);
  results[0].params = {1.0f, 2.0f};
  const auto stats = strategy.RoundCommunication(results);
  EXPECT_EQ(stats.download_floats, 4);  // weights + server control
  EXPECT_EQ(stats.upload_floats, 4);    // weights + control delta
}

TEST(CommunicationTest, SimulationAccumulatesVolume) {
  SbmConfig cfg;
  cfg.num_nodes = 200;
  cfg.num_classes = 3;
  Rng rng(9);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Dataset ds;
  ds.graph = std::move(lg.graph);
  ds.labels = std::move(lg.labels);
  ds.num_classes = 3;
  FeatureConfig fcfg;
  fcfg.dim = 6;
  ds.features = GenerateFeatures(ds.labels, 3, fcfg, rng);
  StratifiedSplit(ds.labels, 3, 0.3, 0.2, rng, &ds.train_idx, &ds.val_idx,
                  &ds.test_idx);
  SplitConfig split;
  split.num_clients = 4;
  Rng srng(10);
  FederatedDataset fed = BuildFederatedDataset(std::move(ds), split, srng);

  ModelConfig model;
  model.type = ModelType::kSgc;
  model.k = 2;
  SimulationConfig sim;
  sim.rounds = 3;
  StrategyOptions sopt;
  Simulation simulation(&fed, model, OptimizerConfig{},
                        std::move(*MakeStrategy("fedgta", sopt)), sim);
  const SimulationResult result = simulation.Run();
  // 4 clients * 3 rounds * param_count, plus metrics on the upload side.
  const int64_t param_count = 6 * 3 + 3;
  EXPECT_EQ(result.total_download_floats, 3 * 4 * param_count);
  EXPECT_GT(result.total_upload_floats, result.total_download_floats);
}

TEST(MacroF1Test, PerfectAndDegenerate) {
  Matrix logits(4, 2);
  logits(0, 0) = 1.0f;
  logits(1, 1) = 1.0f;
  logits(2, 0) = 1.0f;
  logits(3, 1) = 1.0f;
  EXPECT_DOUBLE_EQ(MacroF1(logits, {0, 1, 0, 1}, {0, 1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(MacroF1(logits, {0, 1, 0, 1}, {}), 0.0);
  // All wrong: F1 = 0.
  EXPECT_DOUBLE_EQ(MacroF1(logits, {1, 0, 1, 0}, {0, 1, 2, 3}), 0.0);
}

TEST(MacroF1Test, MatchesManualComputation) {
  // Predictions: argmax row -> {0, 0, 1}; labels {0, 1, 1}.
  Matrix logits(3, 2);
  logits(0, 0) = 1.0f;
  logits(1, 0) = 1.0f;
  logits(2, 1) = 1.0f;
  // Class 0: tp=1 fp=1 fn=0 -> F1 = 2/3. Class 1: tp=1 fp=0 fn=1 -> 2/3.
  EXPECT_NEAR(MacroF1(logits, {0, 1, 1}, {0, 1, 2}), 2.0 / 3.0, 1e-9);
}

TEST(MacroF1Test, PunishesMajorityCollapseMoreThanAccuracy) {
  // 9 of class 0, 1 of class 1, model always predicts 0.
  Matrix logits(10, 2);
  for (int i = 0; i < 10; ++i) logits(i, 0) = 1.0f;
  std::vector<int> labels(10, 0);
  labels[9] = 1;
  std::vector<int32_t> rows;
  for (int32_t i = 0; i < 10; ++i) rows.push_back(i);
  const double acc = Accuracy(logits, labels, rows);
  const double f1 = MacroF1(logits, labels, rows);
  EXPECT_NEAR(acc, 0.9, 1e-9);
  EXPECT_LT(f1, 0.5);
}

TEST(RowNormalizeTest, L2RowsHaveUnitNorm) {
  Rng rng(11);
  Matrix m(5, 8);
  m.GaussianInit(rng, 3.0f);
  RowNormalizeInPlace(&m);
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(L2Norm(m.Row(r)), 1.0, 1e-5);
  }
}

TEST(RowNormalizeTest, L1RowsSumToOneInAbs) {
  Matrix m(2, 3);
  m(0, 0) = 2.0f;
  m(0, 1) = -2.0f;
  m(1, 2) = 5.0f;
  RowNormalizeInPlace(&m, /*l1=*/true);
  EXPECT_FLOAT_EQ(m(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(m(0, 1), -0.5f);
  EXPECT_FLOAT_EQ(m(1, 2), 1.0f);
}

TEST(RowNormalizeTest, ZeroRowsUntouched) {
  Matrix m(1, 3);
  RowNormalizeInPlace(&m);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(ExtensionIntegrationTest, FedGtaPlusVariantsTrain) {
  SbmConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_classes = 3;
  cfg.avg_degree = 6.0;
  Rng rng(13);
  LabeledGraph lg = GeneratePlantedPartition(cfg, rng);
  Dataset ds;
  ds.graph = std::move(lg.graph);
  ds.labels = std::move(lg.labels);
  ds.num_classes = 3;
  FeatureConfig fcfg;
  fcfg.dim = 8;
  fcfg.noise_scale = 1.5f;
  ds.features = GenerateFeatures(ds.labels, 3, fcfg, rng);
  StratifiedSplit(ds.labels, 3, 0.3, 0.2, rng, &ds.train_idx, &ds.val_idx,
                  &ds.test_idx);
  SplitConfig split;
  split.num_clients = 4;
  Rng srng(14);
  FederatedDataset fed = BuildFederatedDataset(std::move(ds), split, srng);

  ModelConfig model;
  model.type = ModelType::kSgc;
  model.k = 2;
  SimulationConfig sim;
  sim.rounds = 6;
  StrategyOptions sopt;
  sopt.fedgta.use_feature_moments = true;
  sopt.fedgta.adaptive_epsilon = true;
  Simulation simulation(&fed, model, OptimizerConfig{},
                        std::move(*MakeStrategy("fedgta", sopt)), sim);
  const SimulationResult result = simulation.Run();
  EXPECT_GT(result.final_test_accuracy, 0.3);
}

}  // namespace
}  // namespace fedgta
