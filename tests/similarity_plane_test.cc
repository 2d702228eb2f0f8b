// Tests of the server similarity/aggregation plane (DESIGN.md §5h): the
// GEMM-backed Eq. 6 block, row-range set building and the regional
// aggregators' ShardPlane (DESIGN.md §5k), the nth_element quantile
// rewrite, and the deduplicated parallel Eq. 7.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/role.h"
#include "fed/shard_plane.h"
#include "linalg/ops.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// Synthetic moment table: `clusters` well-separated directions in d dims,
// each client a small perturbation of its cluster center. Intra-cluster
// cosine stays near 1, inter-cluster near 0 — so Eq. 6 sets are stable
// under any correct similarity evaluation.
std::vector<std::vector<float>> ClusteredMoments(int n, int clusters, int d,
                                                 uint64_t seed,
                                                 float noise = 0.05f) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(static_cast<size_t>(clusters));
  for (auto& c : centers) {
    c.resize(static_cast<size_t>(d));
    for (float& x : c) x = rng.Normal();
  }
  std::vector<std::vector<float>> moments(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& c = centers[static_cast<size_t>(i % clusters)];
    auto& m = moments[static_cast<size_t>(i)];
    m.resize(static_cast<size_t>(d));
    for (int j = 0; j < d; ++j) {
      m[static_cast<size_t>(j)] =
          c[static_cast<size_t>(j)] + noise * rng.Normal();
    }
  }
  return moments;
}

std::vector<int> AllParticipants(int n) {
  std::vector<int> participants(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) participants[static_cast<size_t>(i)] = i;
  return participants;
}

ParticipantRows AllRows(const std::vector<int>& participants) {
  return ParticipantRows{0, static_cast<int64_t>(participants.size())};
}

int64_t CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(SimilarityBlockTest, MatchesScalarCosine) {
  const auto moments = ClusteredMoments(17, 4, 23, /*seed=*/7);
  const auto participants = AllParticipants(17);
  const SimilarityBlock block = ComputeSimilarityBlock(moments, participants);
  ASSERT_EQ(block.values.rows(), 17);
  ASSERT_EQ(block.values.cols(), 17);
  for (int a = 0; a < 17; ++a) {
    EXPECT_FLOAT_EQ(block.values(a, a), 1.0f);
    for (int b = 0; b < 17; ++b) {
      if (a == b) continue;
      const double expected = CosineSimilarity(
          moments[static_cast<size_t>(a)], moments[static_cast<size_t>(b)]);
      EXPECT_NEAR(block.values(a, b), expected, 1e-5)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(SimilarityQuantileTest, NthElementMatchesFullSortReference) {
  const auto moments = ClusteredMoments(23, 5, 14, /*seed=*/3);
  const auto participants = AllParticipants(23);
  const SimilarityBlock block = ComputeSimilarityBlock(moments, participants);
  // Reference: the historical full-sort selection.
  std::vector<float> values;
  for (int a = 0; a < 23; ++a) {
    for (int b = a + 1; b < 23; ++b) values.push_back(block.values(a, b));
  }
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<float> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    EXPECT_EQ(SimilarityQuantile(block, q), sorted[idx]) << "q=" << q;
  }
}

TEST(SimilarityQuantileTest, EmptyAndSingleParticipantReturnZero) {
  const auto moments = ClusteredMoments(3, 1, 5, /*seed=*/1);
  for (const std::vector<int>& participants :
       {std::vector<int>{}, std::vector<int>{2}}) {
    const SimilarityBlock block =
        ComputeSimilarityBlock(moments, participants);
    EXPECT_EQ(SimilarityQuantile(block, 0.5), 0.0);
  }
}

// Dedup correctness: the grouped Eq. 7 must produce exactly what a naive
// per-client canonical-order accumulation produces, and clients sharing a
// set must share bit-identical weights.
TEST(FedGtaAggregatePlaneTest, DedupMatchesNaiveCanonicalReference) {
  const int n = 30;
  const int dim = 50;
  Rng rng(123);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n));
  // Three tight clusters -> exactly three distinct aggregation sets, each
  // shared by 10 clients.
  const auto moments = ClusteredMoments(n, 3, 12, /*seed=*/55, 0.01f);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 1.0 + 0.1 * (i % 7);
    params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : params[static_cast<size_t>(i)]) x = rng.Normal();
    train_sizes[static_cast<size_t>(i)] = 5 + i;
  }
  const auto participants = AllParticipants(n);

  FedGtaOptions options;
  options.epsilon = 0.8;
  const int64_t unique_before =
      CounterValue("fedgta.aggregation.unique_sets");
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  std::vector<std::vector<int>> sets;
  FedGtaAggregate(metrics, params, train_sizes, participants, options, &out,
                  &sets);
  EXPECT_EQ(CounterValue("fedgta.aggregation.unique_sets") - unique_before,
            3);

  for (int i : participants) {
    std::vector<int> canonical = sets[static_cast<size_t>(i)];
    std::sort(canonical.begin(), canonical.end());
    double weight_sum = 0.0;
    for (int j : canonical) {
      weight_sum += metrics[static_cast<size_t>(j)].confidence;
    }
    std::vector<float> expected(static_cast<size_t>(dim), 0.0f);
    for (int j : canonical) {
      const float w = static_cast<float>(
          metrics[static_cast<size_t>(j)].confidence / weight_sum);
      Axpy(w, params[static_cast<size_t>(j)], expected);
    }
    EXPECT_EQ(out[static_cast<size_t>(i)], expected) << "client " << i;
  }
  // Clients in the same cluster share the set, hence identical weights.
  EXPECT_EQ(out[0], out[3]);
  EXPECT_EQ(out[1], out[4]);
}

TEST(FedGtaAggregatePlaneTest, ResultsInvariantToThreadCount) {
  const int n = 48;
  const int dim = 80;
  Rng rng(7);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n), 10);
  const auto moments = ClusteredMoments(n, 5, 20, /*seed=*/77, 0.1f);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 0.3 + 0.02 * i;
    params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : params[static_cast<size_t>(i)]) x = rng.Normal();
  }
  const auto participants = AllParticipants(n);
  FedGtaOptions options;
  options.epsilon = 0.3;

  std::vector<std::vector<std::vector<float>>> runs;
  for (int threads : {1, 4}) {
    SetGlobalThreadPoolSize(threads);
    std::vector<std::vector<float>> out(static_cast<size_t>(n));
    FedGtaAggregate(metrics, params, train_sizes, participants, options,
                    &out);
    runs.push_back(std::move(out));
  }
  SetGlobalThreadPoolSize(1);
  EXPECT_EQ(runs[0], runs[1]);
}

// Satellite regression: adaptive-ε must compute the similarity block once
// (the seed computed it twice — once for the quantile, once for the sets).
TEST(FedGtaAggregatePlaneTest, AdaptiveEpsilonComputesSimilarityOnce) {
  const int n = 16;
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  std::vector<std::vector<float>> params(static_cast<size_t>(n));
  std::vector<int64_t> train_sizes(static_cast<size_t>(n), 4);
  const auto moments = ClusteredMoments(n, 4, 10, /*seed=*/31);
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments = moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 1.0;
    params[static_cast<size_t>(i)] = {1.0f, 2.0f};
  }
  FedGtaOptions options;
  options.adaptive_epsilon = true;
  options.adaptive_quantile = 0.5;

  const int64_t calls_before = CounterValue("phase.similarity.calls");
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  FedGtaAggregate(metrics, params, train_sizes, AllParticipants(n), options,
                  &out);
  EXPECT_EQ(CounterValue("phase.similarity.calls") - calls_before, 1);
}

// --- Row-range set building and the regional aggregators (DESIGN.md §5k) --
//
// Each regional aggregator runs core Eq. 6 over the round's full survivor
// frame, limited to its shard's contiguous rows. The contract: every row
// of a range call equals that row of the full call (members and order),
// the pair counts of disjoint ranges covering the frame sum to the full
// call's, and none of it depends on the thread count.

struct ShardedFixture {
  int n = 0;
  std::vector<int> participants;
  std::vector<std::vector<float>> moments;
  std::vector<std::vector<float>> params;
  std::vector<double> confidences;  // by client id
  std::vector<int64_t> train_sizes;
};

ShardedFixture MakeShardedFixture(int n, int dim, uint64_t seed) {
  ShardedFixture f;
  f.n = n;
  f.moments = ClusteredMoments(n, std::max(2, n / 8), 31, seed, 0.15f);
  f.params.resize(static_cast<size_t>(n));
  f.confidences.resize(static_cast<size_t>(n));
  f.train_sizes.resize(static_cast<size_t>(n));
  Rng rng(seed ^ 0xABCDull);
  for (int i = 0; i < n; ++i) {
    f.params[static_cast<size_t>(i)].resize(static_cast<size_t>(dim));
    for (float& x : f.params[static_cast<size_t>(i)]) x = rng.Normal();
    f.confidences[static_cast<size_t>(i)] = 0.5 + 0.01 * i;
    f.train_sizes[static_cast<size_t>(i)] = 10 + i;
    // Drop some clients so the survivor frame is irregular and shard
    // boundaries fall inside aggregation sets.
    if (i % 7 != 3) f.participants.push_back(i);
  }
  return f;
}

// Positions of the survivor frame that `shard` owns.
ParticipantRows ShardRows(const std::vector<int>& participants,
                          const fed::ShardRange& shard) {
  const auto first = std::lower_bound(participants.begin(),
                                      participants.end(), shard.begin);
  const auto last = std::lower_bound(first, participants.end(), shard.end);
  return ParticipantRows{first - participants.begin(),
                         last - participants.begin()};
}

TEST(SimilarityParityTest, RowRangesReproduceFullCall) {
  const int n = 48;
  const double epsilon = 0.3;
  for (uint64_t seed : {5ull, 311ull, 991ull}) {
    const ShardedFixture f = MakeShardedFixture(n, /*dim=*/8, seed);
    const int64_t full_before = CounterValue("fedgta.similarity.pairs_exact");
    const auto full = BuildAggregationSets(f.moments, f.participants, epsilon,
                                           AllRows(f.participants));
    const int64_t full_pairs =
        CounterValue("fedgta.similarity.pairs_exact") - full_before;
    EXPECT_EQ(full, BuildAggregationSets(f.moments, f.participants, epsilon));
    for (int shards : {2, 3, 4}) {
      const fed::Topology topo(n, shards, shards);
      std::vector<std::vector<std::vector<int>>> by_threads;
      for (int threads : {1, 4}) {
        SetGlobalThreadPoolSize(threads);
        std::vector<std::vector<int>> merged(static_cast<size_t>(n));
        const int64_t pairs_before =
            CounterValue("fedgta.similarity.pairs_exact");
        for (int a = 0; a < shards; ++a) {
          const ParticipantRows rows =
              ShardRows(f.participants, topo.ClientShard(a));
          const auto sets =
              BuildAggregationSets(f.moments, f.participants, epsilon, rows);
          for (int64_t r = 0; r < static_cast<int64_t>(f.participants.size());
               ++r) {
            const int id = f.participants[static_cast<size_t>(r)];
            if (r >= rows.begin && r < rows.end) {
              EXPECT_EQ(sets[static_cast<size_t>(id)],
                        full[static_cast<size_t>(id)])
                  << "client " << id << " shard " << a << " shards=" << shards
                  << " seed=" << seed << " threads=" << threads;
              merged[static_cast<size_t>(id)] = sets[static_cast<size_t>(id)];
            } else {
              EXPECT_TRUE(sets[static_cast<size_t>(id)].empty())
                  << "client " << id << " outside shard " << a;
            }
          }
        }
        // Each ordered pair is judged from its row's range exactly once.
        EXPECT_EQ(CounterValue("fedgta.similarity.pairs_exact") - pairs_before,
                  full_pairs)
            << "shards=" << shards << " seed=" << seed;
        EXPECT_EQ(merged, full);
        by_threads.push_back(std::move(merged));
      }
      SetGlobalThreadPoolSize(1);
      EXPECT_EQ(by_threads[0], by_threads[1]);
    }
  }
}

// One ShardPlane per shard of `topo`, each staged with its survivors.
std::vector<std::unique_ptr<fed::ShardPlane>> StageShards(
    const ShardedFixture& f, const fed::Topology& topo,
    const FedGtaOptions& options) {
  std::vector<std::unique_ptr<fed::ShardPlane>> planes;
  for (int a = 0; a < topo.num_aggregators(); ++a) {
    planes.push_back(std::make_unique<fed::ShardPlane>(
        f.n, topo.ClientShard(a), options, f.train_sizes));
    std::vector<fed::ShardUpload> uploads;
    for (int id : f.participants) {
      if (!topo.ClientShard(a).contains(id)) continue;
      fed::ShardUpload up;
      up.client_id = id;
      up.params = f.params[static_cast<size_t>(id)];
      up.moments = f.moments[static_cast<size_t>(id)];
      up.confidence = f.confidences[static_cast<size_t>(id)];
      uploads.push_back(std::move(up));
    }
    planes.back()->StageRound(std::move(uploads));
  }
  return planes;
}

// The survivor frame the root broadcasts in SetBuild.
std::vector<std::vector<float>> FrameMoments(const ShardedFixture& f) {
  std::vector<std::vector<float>> rows;
  for (int id : f.participants) {
    rows.push_back(f.moments[static_cast<size_t>(id)]);
  }
  return rows;
}

// The Eq. 6+7 contract of the sharded plane: every shard's BuildSets over
// the broadcast frame yields the single-server sets, and chaining
// AccumulatePartial across the shards in ascending shard order (with the
// weight sum the root computes) reproduces the single-server personalized
// weights bit for bit; a set that never crosses a shard boundary must
// short-circuit through AggregateLocalSet to the same bits.
TEST(ShardPlaneParityTest, ChainedPartialsBitIdenticalToSingleServer) {
  const int n = 36;
  const int dim = 40;
  const ShardedFixture f = MakeShardedFixture(n, dim, /*seed=*/77);

  FedGtaOptions options;
  options.epsilon = 0.4;

  // Single-server oracle: the full Eq. 6+7 plane.
  std::vector<ClientMetrics> metrics(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    metrics[static_cast<size_t>(i)].moments =
        f.moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence =
        f.confidences[static_cast<size_t>(i)];
  }
  std::vector<std::vector<float>> oracle_out(static_cast<size_t>(n));
  std::vector<std::vector<int>> oracle_sets;
  FedGtaAggregate(metrics, f.params, f.train_sizes, f.participants, options,
                  &oracle_out, &oracle_sets);

  for (int shards : {2, 3}) {
    const fed::Topology topo(n, shards, shards);
    const auto planes = StageShards(f, topo, options);

    for (int a = 0; a < shards; ++a) {
      const fed::ShardPlane& plane = *planes[static_cast<size_t>(a)];
      const Result<std::vector<std::vector<int>>> sets =
          plane.BuildSets(f.participants, FrameMoments(f));
      ASSERT_TRUE(sets.ok()) << sets.status();
      ASSERT_EQ(sets->size(), plane.staged().size());
      for (size_t r = 0; r < plane.staged().size(); ++r) {
        const int id = plane.staged()[r];
        EXPECT_EQ((*sets)[r], oracle_sets[static_cast<size_t>(id)])
            << "client " << id << " shards=" << shards;
        std::vector<int> canonical = (*sets)[r];
        std::sort(canonical.begin(), canonical.end());
        const bool local =
            std::all_of(canonical.begin(), canonical.end(), [&](int m) {
              return plane.shard().contains(m);
            });
        std::vector<float> got;
        if (local) {
          got = plane.AggregateLocalSet(canonical);
        } else {
          double weight_sum = 0.0;
          for (int m : canonical) {
            weight_sum += f.confidences[static_cast<size_t>(m)];
          }
          got.assign(static_cast<size_t>(dim), 0.0f);
          for (int src = 0; src < shards; ++src) {
            planes[static_cast<size_t>(src)]->AccumulatePartial(
                canonical, weight_sum, &got);
          }
        }
        EXPECT_EQ(got, oracle_out[static_cast<size_t>(id)])
            << "client " << id << " shards=" << shards
            << (local ? " (local set)" : " (cross-shard set)");
      }
    }
  }
}

// A survivor frame is root-supplied input: every malformed shape must come
// back as InvalidArgument instead of aborting the aggregator.
TEST(ShardPlaneFrameTest, MalformedFramesAreInvalidArgument) {
  const int n = 20;
  const ShardedFixture f = MakeShardedFixture(n, /*dim=*/4, /*seed=*/9);
  FedGtaOptions options;
  options.epsilon = 0.3;
  const fed::Topology topo(n, 2, 2);
  const auto planes = StageShards(f, topo, options);
  const fed::ShardPlane& plane = *planes[1];  // shard [10, 20)
  const std::vector<int>& ids = f.participants;
  const std::vector<std::vector<float>> rows = FrameMoments(f);
  ASSERT_TRUE(plane.BuildSets(ids, rows).ok());

  const auto expect_invalid = [&](const std::vector<int>& bad_ids,
                                  const std::vector<std::vector<float>>& bad,
                                  const char* what) {
    const Result<std::vector<std::vector<int>>> sets =
        plane.BuildSets(bad_ids, bad);
    ASSERT_FALSE(sets.ok()) << what;
    EXPECT_EQ(sets.status().code(), StatusCode::kInvalidArgument) << what;
  };

  std::vector<int> out_of_range = ids;
  out_of_range.back() = n;
  expect_invalid(out_of_range, rows, "id past the client count");
  std::vector<int> negative = ids;
  negative.front() = -1;
  expect_invalid(negative, rows, "negative id");
  std::vector<int> unsorted = ids;
  std::swap(unsorted[2], unsorted[3]);
  expect_invalid(unsorted, rows, "ids not ascending");
  std::vector<int> duplicate = ids;
  duplicate[1] = duplicate[0];
  expect_invalid(duplicate, rows, "duplicate id");

  std::vector<std::vector<float>> short_frame = rows;
  short_frame.pop_back();
  expect_invalid(ids, short_frame, "fewer moment rows than ids");
  std::vector<std::vector<float>> ragged = rows;
  ragged[1].push_back(1.0f);
  expect_invalid(ids, ragged, "ragged moment row");
  std::vector<std::vector<float>> resized = rows;
  for (std::vector<float>& row : resized) row.resize(row.size() - 1);
  expect_invalid(ids, resized, "rows shorter than the staged uploads");
  expect_invalid({}, {}, "empty frame");

  // A frame that lost one of this shard's staged survivors.
  const size_t staged_pos = static_cast<size_t>(
      std::find(ids.begin(), ids.end(), plane.staged().front()) - ids.begin());
  std::vector<int> missing_ids = ids;
  std::vector<std::vector<float>> missing_rows = rows;
  missing_ids.erase(missing_ids.begin() + static_cast<int64_t>(staged_pos));
  missing_rows.erase(missing_rows.begin() + static_cast<int64_t>(staged_pos));
  expect_invalid(missing_ids, missing_rows, "staged survivor missing");
  // ... or names a shard client that never uploaded this round (3 + 7k
  // are the fixture's non-survivors).
  std::vector<int> extra_ids = ids;
  std::vector<std::vector<float>> extra_rows = rows;
  const auto at = std::lower_bound(extra_ids.begin(), extra_ids.end(), 17);
  extra_rows.insert(extra_rows.begin() + (at - extra_ids.begin()), rows[0]);
  extra_ids.insert(at, 17);
  expect_invalid(extra_ids, extra_rows, "unstaged shard client");
  // ... or carries other moments for a staged survivor than it uploaded.
  std::vector<std::vector<float>> altered = rows;
  altered[staged_pos][0] += 1.0f;
  expect_invalid(ids, altered, "staged survivor's moments altered");
}

TEST(FedGtaAggregatePlaneTest, PairCountersAccumulateInRegistry) {
  const int n = 10;
  const auto moments = ClusteredMoments(n, 2, 8, /*seed=*/63);
  const int64_t exact_before = CounterValue("fedgta.similarity.pairs_exact");
  (void)BuildAggregationSets(moments, AllParticipants(n), 0.3);
  EXPECT_EQ(CounterValue("fedgta.similarity.pairs_exact") - exact_before,
            static_cast<int64_t>(n) * (n - 1));

  // A fleet-sized round under the options the end-to-end benchmark sets
  // (mode = kAuto) judges every ordered pair exactly: the mode is unread.
  const int big = 600;
  const auto big_moments = ClusteredMoments(big, 12, 16, /*seed=*/64, 0.3f);
  std::vector<ClientMetrics> metrics(static_cast<size_t>(big));
  std::vector<std::vector<float>> params(static_cast<size_t>(big));
  for (int i = 0; i < big; ++i) {
    metrics[static_cast<size_t>(i)].moments =
        big_moments[static_cast<size_t>(i)];
    metrics[static_cast<size_t>(i)].confidence = 1.0;
    params[static_cast<size_t>(i)] = {static_cast<float>(i)};
  }
  const std::vector<int64_t> train_sizes(static_cast<size_t>(big), 1);
  FedGtaOptions options;
  options.similarity.mode = SimilarityMode::kAuto;
  const int64_t big_before = CounterValue("fedgta.similarity.pairs_exact");
  std::vector<std::vector<float>> out(static_cast<size_t>(big));
  std::vector<std::vector<int>> sets;
  FedGtaAggregate(metrics, params, train_sizes, AllParticipants(big), options,
                  &out, &sets);
  EXPECT_EQ(CounterValue("fedgta.similarity.pairs_exact") - big_before,
            static_cast<int64_t>(big) * (big - 1));
  EXPECT_EQ(sets,
            BuildAggregationSets(big_moments, AllParticipants(big),
                                 options.epsilon));
}

}  // namespace
}  // namespace fedgta
