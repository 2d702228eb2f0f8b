// Server-plane scaling benchmark: per-round Eq. 6+7 server time versus
// participant count, comparing the seed's scalar path against the GEMM
// similarity plane's exact row-panel sweep with the deduplicated parallel
// Eq. 7, and against the same plane sharded over regional aggregators.
// Writes BENCH_server_scale.json — the artifact behind the ≥5×
// 10k-participant server speedup claim (DESIGN.md §5h) — and hard-fails if
// the aggregation sets or weights diverge between arms, the 10k speedup
// drops below 5×, or a shard's state reaches the single-server footprint.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/role.h"
#include "fed/shard_plane.h"
#include "linalg/backend.h"
#include "linalg/ops.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

// --- Verbatim replica of the seed's scalar server path (pre-plane) ---

// Seed similarity matrix: full clients² buffer, one scalar
// CosineSimilarity per pair (which re-derives both norms per call).
Matrix SeedSimilarityMatrix(const std::vector<std::vector<float>>& moments,
                            const std::vector<int>& participants) {
  const int n = static_cast<int>(moments.size());
  Matrix sim(n, n);
  for (size_t a = 0; a < participants.size(); ++a) {
    const int i = participants[a];
    sim(i, i) = 1.0f;
    for (size_t b = a + 1; b < participants.size(); ++b) {
      const int j = participants[b];
      const float s = static_cast<float>(
          CosineSimilarity(moments[static_cast<size_t>(i)],
                           moments[static_cast<size_t>(j)]));
      sim(i, j) = s;
      sim(j, i) = s;
    }
  }
  return sim;
}

std::vector<std::vector<int>> SeedBuildSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon) {
  const Matrix sim = SeedSimilarityMatrix(moments, participants);
  std::vector<std::vector<int>> sets(moments.size());
  for (int i : participants) {
    auto& set = sets[static_cast<size_t>(i)];
    set.push_back(i);
    for (int j : participants) {
      if (j == i) continue;
      if (sim(i, j) >= static_cast<float>(epsilon)) set.push_back(j);
    }
  }
  return sets;
}

// Seed Eq. 7: one serial weight-vector accumulation per client, no dedup.
void SeedAggregate(const std::vector<ClientMetrics>& metrics,
                   const std::vector<std::vector<float>>& params,
                   const std::vector<int>& participants,
                   const std::vector<std::vector<int>>& sets,
                   std::vector<std::vector<float>>* personalized) {
  for (int i : participants) {
    const auto& set = sets[static_cast<size_t>(i)];
    double weight_sum = 0.0;
    for (int j : set) weight_sum += metrics[static_cast<size_t>(j)].confidence;
    auto& out = (*personalized)[static_cast<size_t>(i)];
    out.assign(params[static_cast<size_t>(set.front())].size(), 0.0f);
    for (int j : set) {
      const float w =
          weight_sum > 0.0
              ? static_cast<float>(
                    metrics[static_cast<size_t>(j)].confidence / weight_sum)
              : 1.0f / static_cast<float>(set.size());
      Axpy(w, params[static_cast<size_t>(j)], out);
    }
  }
}

// --- Synthetic round: tight clusters, wide ε margins ---

constexpr int kClusters = 32;
constexpr int kMomentDim = 150;  // k=5 hops × K=3 orders × 10 classes
constexpr int kParamDim = 2000;
constexpr double kEpsilon = 0.9;

struct Round {
  std::vector<ClientMetrics> metrics;
  std::vector<std::vector<float>> params;
  std::vector<int64_t> train_sizes;
  std::vector<int> participants;
};

Round MakeRound(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(kClusters);
  for (auto& c : centers) {
    c.resize(kMomentDim);
    for (float& x : c) x = rng.Normal();
  }
  Round round;
  round.metrics.resize(static_cast<size_t>(n));
  round.params.resize(static_cast<size_t>(n));
  round.train_sizes.assign(static_cast<size_t>(n), 100);
  round.participants.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& m = round.metrics[static_cast<size_t>(i)];
    const auto& c = centers[static_cast<size_t>(i % kClusters)];
    m.moments.resize(kMomentDim);
    for (int j = 0; j < kMomentDim; ++j) {
      m.moments[static_cast<size_t>(j)] =
          c[static_cast<size_t>(j)] + 0.01f * rng.Normal();
    }
    m.confidence = 0.5 + 0.3 * rng.Uniform();
    auto& p = round.params[static_cast<size_t>(i)];
    p.resize(kParamDim);
    for (float& x : p) x = rng.Normal();
    round.participants[static_cast<size_t>(i)] = i;
  }
  return round;
}

int64_t CounterValue(const char* name) {
  const Counter* c = GlobalMetrics().FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

struct ArmResult {
  double seconds = 0.0;
  int64_t unique_sets = 0;
  std::vector<std::vector<int>> sets;
  std::vector<std::vector<float>> personalized;
};

ArmResult RunPlaneArm(const Round& round) {
  FedGtaOptions options;
  options.epsilon = kEpsilon;
  const int n = static_cast<int>(round.metrics.size());
  std::vector<std::vector<float>> personalized(static_cast<size_t>(n));
  const int64_t unique0 = CounterValue("fedgta.aggregation.unique_sets");
  ArmResult arm;
  WallTimer timer;
  FedGtaAggregate(round.metrics, round.params, round.train_sizes,
                  round.participants, options, &personalized, &arm.sets);
  arm.seconds = timer.Seconds();
  arm.unique_sets = CounterValue("fedgta.aggregation.unique_sets") - unique0;
  arm.personalized = std::move(personalized);
  return arm;
}

// --- Sharded arm: the hierarchical Eq. 6/7 plane, in process -------------
//
// K ShardPlanes run the regional-aggregator round (DESIGN.md §5k) without
// the network: stage, core Eq. 6 over the broadcast survivor frame limited
// to each shard's rows, and globally-deduplicated Eq. 7 (local sets
// aggregated in place, cross-shard sets via the chained ascending-shard
// partial pass). The point of the arm is the memory claim: no process
// ever materializes the other shards' parameters, so per-process peak
// state must sit strictly below the single-server plane's — while staying
// bit-identical to it.

struct ShardedResult {
  double seconds = 0.0;
  int64_t unique_sets = 0;
  /// Largest per-shard participant-state footprint: staged params and
  /// moments + the broadcast moment frame.
  int64_t peak_state_bytes = 0;
};

int64_t ShardStateBytes(int staged, int frame_rows) {
  return static_cast<int64_t>(staged) * (kParamDim + kMomentDim) * 4 +
         static_cast<int64_t>(frame_rows) * kMomentDim * 4;
}

ShardedResult RunShardedArm(const Round& round, int num_shards,
                            const ArmResult& oracle) {
  FedGtaOptions options;
  options.epsilon = kEpsilon;
  const int n = static_cast<int>(round.metrics.size());
  const fed::Topology topo(n, num_shards, num_shards);
  ShardedResult result;
  std::vector<std::vector<float>> personalized(static_cast<size_t>(n));
  WallTimer timer;

  std::vector<std::unique_ptr<fed::ShardPlane>> planes;
  for (int a = 0; a < num_shards; ++a) {
    planes.push_back(std::make_unique<fed::ShardPlane>(
        n, topo.ClientShard(a), options, round.train_sizes));
    std::vector<fed::ShardUpload> uploads;
    for (int id = topo.ClientShard(a).begin; id < topo.ClientShard(a).end;
         ++id) {
      fed::ShardUpload up;
      up.client_id = id;
      up.params = round.params[static_cast<size_t>(id)];
      up.moments = round.metrics[static_cast<size_t>(id)].moments;
      up.confidence = round.metrics[static_cast<size_t>(id)].confidence;
      uploads.push_back(std::move(up));
    }
    planes.back()->StageRound(std::move(uploads));
  }
  std::vector<std::vector<float>> frame;
  frame.reserve(static_cast<size_t>(n));
  for (int id : round.participants) {
    frame.push_back(round.metrics[static_cast<size_t>(id)].moments);
  }

  // Global dedup, the root's group phases in miniature: one Eq. 7
  // evaluation per distinct canonical set, local sets short-circuited on
  // their shard, cross-shard weight sums in canonical order.
  std::map<std::vector<int>, std::vector<float>> groups;
  for (int a = 0; a < num_shards; ++a) {
    const fed::ShardPlane& plane = *planes[static_cast<size_t>(a)];
    const Result<std::vector<std::vector<int>>> sets =
        plane.BuildSets(round.participants, frame);
    FEDGTA_CHECK(sets.ok()) << sets.status();
    FEDGTA_CHECK_EQ(sets->size(), plane.staged().size());
    for (size_t r = 0; r < sets->size(); ++r) {
      const int id = plane.staged()[r];
      FEDGTA_CHECK((*sets)[r] == oracle.sets[static_cast<size_t>(id)])
          << "sharded set diverges from single-server at client " << id;
      std::vector<int> canonical = (*sets)[r];
      std::sort(canonical.begin(), canonical.end());
      auto it = groups.find(canonical);
      if (it == groups.end()) {
        std::vector<float> acc;
        const bool local =
            std::all_of(canonical.begin(), canonical.end(),
                        [&](int m) { return plane.shard().contains(m); });
        if (local) {
          acc = plane.AggregateLocalSet(canonical);
        } else {
          double weight_sum = 0.0;
          for (int m : canonical) {
            weight_sum += round.metrics[static_cast<size_t>(m)].confidence;
          }
          acc.assign(kParamDim, 0.0f);
          for (int src = 0; src < num_shards; ++src) {
            planes[static_cast<size_t>(src)]->AccumulatePartial(
                canonical, weight_sum, &acc);
          }
        }
        it = groups.emplace(std::move(canonical), std::move(acc)).first;
      }
      personalized[static_cast<size_t>(id)] = it->second;
    }
  }
  result.seconds = timer.Seconds();
  result.unique_sets = static_cast<int64_t>(groups.size());

  FEDGTA_CHECK(personalized == oracle.personalized)
      << "sharded personalized weights diverge from single-server";

  for (int a = 0; a < num_shards; ++a) {
    result.peak_state_bytes = std::max(
        result.peak_state_bytes,
        ShardStateBytes(
            static_cast<int>(planes[static_cast<size_t>(a)]->staged().size()),
            n));
  }
  return result;
}

ArmResult RunSeedArm(const Round& round) {
  const int n = static_cast<int>(round.metrics.size());
  std::vector<std::vector<float>> moments(static_cast<size_t>(n));
  std::vector<std::vector<float>> personalized(static_cast<size_t>(n));
  ArmResult arm;
  WallTimer timer;
  for (int i : round.participants) {
    moments[static_cast<size_t>(i)] =
        round.metrics[static_cast<size_t>(i)].moments;
  }
  arm.sets = SeedBuildSets(moments, round.participants, kEpsilon);
  SeedAggregate(round.metrics, round.params, round.participants, arm.sets,
                &personalized);
  arm.seconds = timer.Seconds();
  arm.unique_sets = n;  // one weight vector per client
  return arm;
}

constexpr int kShards = 4;

struct SweepPoint {
  int participants = 0;
  ArmResult seed;
  ArmResult exact;
  ShardedResult sharded;
  int64_t single_server_state_bytes = 0;
};

void Run(const char* out_path) {
  // Default to the fastest available kernel backend; FEDGTA_BACKEND still
  // overrides for backend-sweep CI runs.
  if (std::getenv("FEDGTA_BACKEND") == nullptr) {
    for (const char* name : {"simd", "blocked"}) {
      if (linalg::FindBackend(name) != nullptr) {
        FEDGTA_CHECK(linalg::SetActiveBackend(name).ok());
        break;
      }
    }
  }
  const std::string backend(linalg::ActiveBackend().name());

  std::vector<SweepPoint> points;
  for (int n : {1000, 10000}) {
    std::printf("== %d participants (backend=%s) ==\n", n, backend.c_str());
    std::fflush(stdout);
    const Round round = MakeRound(n, /*seed=*/0xC0FFEE + n);
    SweepPoint point;
    point.participants = n;
    point.seed = RunSeedArm(round);
    point.exact = RunPlaneArm(round);

    // Parity: identical Eq. 6 sets.
    FEDGTA_CHECK(point.exact.sets == point.seed.sets)
        << "exact-plane sets diverge from seed scalar sets at n=" << n;

    // Sharded arm (bit-identity CHECKed inside against the exact arm).
    point.sharded = RunShardedArm(round, kShards, point.exact);
    point.single_server_state_bytes =
        static_cast<int64_t>(n) * (kParamDim + kMomentDim) * 4;

    std::printf(
        "  seed    %8.3f s\n  exact   %8.3f s (%.1fx, %lld unique sets)\n"
        "  sharded %8.3f s (K=%d, peak state %.1f MB vs %.1f MB "
        "single-server, bit-identical)\n",
        point.seed.seconds, point.exact.seconds,
        point.seed.seconds / point.exact.seconds,
        static_cast<long long>(point.exact.unique_sets),
        point.sharded.seconds, kShards,
        static_cast<double>(point.sharded.peak_state_bytes) / 1e6,
        static_cast<double>(point.single_server_state_bytes) / 1e6);
    std::fflush(stdout);
    points.push_back(std::move(point));
  }

  const SweepPoint& at10k = points.back();
  const double speedup_10k = at10k.seed.seconds / at10k.exact.seconds;
  FEDGTA_CHECK_GE(speedup_10k, 5.0)
      << "10k-participant server plane speedup regressed below 5x";
  // The hierarchy's memory claim (DESIGN.md §5k): at 10k participants no
  // shard's state reaches the single-server footprint.
  FEDGTA_CHECK_LT(at10k.sharded.peak_state_bytes,
                  at10k.single_server_state_bytes)
      << "sharded per-process peak state not below single-server at 10k";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s, skipping JSON dump\n", out_path);
    return;
  }
  std::fprintf(f,
               "{\n  \"backend\": \"%s\",\n  \"epsilon\": %.2f,\n"
               "  \"clusters\": %d,\n  \"moment_dim\": %d,\n"
               "  \"param_dim\": %d,\n  \"sweep\": [\n",
               backend.c_str(), kEpsilon, kClusters, kMomentDim, kParamDim);
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"participants\": %d, \"seed_scalar_seconds\": %.4f,\n"
        "     \"exact_seconds\": %.4f, \"speedup_exact\": %.2f,\n"
        "     \"unique_sets\": %lld, \"sets_match\": true,\n"
        "     \"sharded\": {\"shards\": %d, \"seconds\": %.4f,\n"
        "      \"unique_sets\": %lld, \"peak_state_bytes\": %lld,\n"
        "      \"single_server_state_bytes\": %lld,\n"
        "      \"bit_identical\": true}}%s\n",
        p.participants, p.seed.seconds, p.exact.seconds,
        p.seed.seconds / p.exact.seconds,
        static_cast<long long>(p.exact.unique_sets), kShards,
        p.sharded.seconds, static_cast<long long>(p.sharded.unique_sets),
        static_cast<long long>(p.sharded.peak_state_bytes),
        static_cast<long long>(p.single_server_state_bytes),
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_10k\": %.2f\n}\n", speedup_10k);
  std::fclose(f);
  std::printf("server scale sweep written to %s (10k speedup %.1fx)\n",
              out_path, speedup_10k);
}

}  // namespace
}  // namespace fedgta

int main() {
  std::printf("== FedGTA server plane scaling (Eq. 6 + Eq. 7) ==\n");
  fedgta::Run("BENCH_server_scale.json");
  return 0;
}
