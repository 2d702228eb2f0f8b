#include "core/fedgta_metrics.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "core/similarity.h"
#include "core/smoothing_confidence.h"
#include "graph/normalized_adjacency.h"
#include "linalg/ops.h"
#include "obs/metrics.h"

namespace fedgta {

namespace {

void NormalizeL2(std::vector<float>& v) {
  const double norm = L2Norm(v);
  if (norm > 0.0) {
    for (float& x : v) x = static_cast<float>(x / norm);
  }
}

// The L2-normalized FedGTA+feat moment block (paper §5): moments of the
// k-step propagated node features, first d dimensions.
std::vector<float> PropagatedFeatureMoments(const CsrMatrix& op,
                                            const Matrix& features,
                                            const FedGtaOptions& options) {
  const int64_t d =
      std::min<int64_t>(options.feature_moment_dims, features.cols());
  Matrix truncated(features.rows(), d);
  for (int64_t i = 0; i < features.rows(); ++i) {
    const auto src = features.Row(i);
    std::copy(src.begin(), src.begin() + d, truncated.Row(i).begin());
  }
  const std::vector<Matrix> feature_hops =
      NonParamLabelPropagation(op, truncated, options.alpha, options.k);
  std::vector<float> feature_moments =
      MixedMoments(feature_hops, options.moment_order);
  NormalizeL2(feature_moments);
  return feature_moments;
}

// FNV-1a over the members of a canonical (sorted) aggregation set, for the
// Eq. (7) dedup map.
struct SetHash {
  size_t operator()(const std::vector<int>& v) const {
    uint64_t h = 1469598103934665603ull;
    for (int x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

ClientMetrics ComputeClientMetrics(const Graph& graph, const Matrix& logits,
                                   const FedGtaOptions& options,
                                   const Matrix* features,
                                   ClientMetricsCache* cache) {
  FEDGTA_CHECK_EQ(static_cast<int64_t>(graph.num_nodes()), logits.rows());
  const bool want_feature_moments =
      options.use_feature_moments && features != nullptr;
  if (want_feature_moments) {
    FEDGTA_CHECK_EQ(features->rows(), logits.rows());
  }

  // (Re)fill the round-invariant cache when absent or built under different
  // option fields. With no caller-provided cache, `local` plays the role for
  // this one call.
  ClientMetricsCache local;
  ClientMetricsCache* c = cache != nullptr ? cache : &local;
  const bool stale = !c->ready || c->alpha != options.alpha ||
                     c->k != options.k ||
                     c->moment_order != options.moment_order ||
                     c->use_feature_moments != want_feature_moments ||
                     c->feature_moment_dims != options.feature_moment_dims;
  if (stale) {
    c->op = LabelPropagationOperator(graph);
    c->degrees = SelfLoopDegrees(graph);
    c->feature_moments =
        want_feature_moments
            ? PropagatedFeatureMoments(c->op, *features, options)
            : std::vector<float>();
    c->alpha = options.alpha;
    c->k = options.k;
    c->moment_order = options.moment_order;
    c->use_feature_moments = want_feature_moments;
    c->feature_moment_dims = options.feature_moment_dims;
    c->ready = true;
  }

  Matrix y0 = logits;
  RowSoftmaxInPlace(&y0);
  const std::vector<Matrix> hops =
      NonParamLabelPropagation(c->op, y0, options.alpha, options.k);

  ClientMetrics metrics;
  metrics.confidence = SmoothingConfidence(hops.back(), c->degrees);
  metrics.moments = MixedMoments(hops, options.moment_order);

  // FedGTA+feat extension (paper §5): append the cached propagated-feature
  // block, L2-normalizing both blocks so they contribute comparably to the
  // cosine.
  if (want_feature_moments) {
    NormalizeL2(metrics.moments);
    metrics.moments.insert(metrics.moments.end(), c->feature_moments.begin(),
                           c->feature_moments.end());
  }
  return metrics;
}

void FedGtaAggregate(const std::vector<ClientMetrics>& metrics,
                     const std::vector<std::vector<float>>& params,
                     const std::vector<int64_t>& train_sizes,
                     const std::vector<int>& participants,
                     const FedGtaOptions& options,
                     std::vector<std::vector<float>>* personalized,
                     std::vector<std::vector<int>>* aggregation_sets_out) {
  FEDGTA_CHECK(personalized != nullptr);
  FEDGTA_CHECK_EQ(metrics.size(), params.size());
  FEDGTA_CHECK_EQ(metrics.size(), train_sizes.size());
  FEDGTA_CHECK_EQ(metrics.size(), personalized->size());

  // Eq. (6): aggregation sets from moment similarity.
  std::vector<std::vector<int>> sets;
  if (options.disable_moments) {
    sets.assign(metrics.size(), {});
    for (int i : participants) {
      sets[static_cast<size_t>(i)] = participants;
    }
  } else {
    std::vector<std::vector<float>> moments(metrics.size());
    for (int i : participants) {
      moments[static_cast<size_t>(i)] = metrics[static_cast<size_t>(i)].moments;
    }
    if (options.adaptive_epsilon) {
      // Adaptive-ε extension: threshold at the round's similarity quantile
      // so the set sizes track the actual client heterogeneity. The quantile
      // needs every pairwise value, so this path computes the full exact
      // block once and derives both the threshold and the sets from it.
      const SimilarityBlock block =
          ComputeSimilarityBlock(moments, participants);
      const double epsilon =
          SimilarityQuantile(block, options.adaptive_quantile);
      sets = SetsFromSimilarityBlock(block,
                                     static_cast<int>(metrics.size()),
                                     epsilon);
    } else {
      sets = BuildAggregationSets(moments, participants, options.epsilon);
    }
  }

  // Eq. (7): confidence-weighted aggregation within each set. Clients whose
  // aggregation sets contain the same members get the same personalized
  // weights, so group participants by canonical (sorted) set membership and
  // compute each group's weight vector once. Accumulation runs in canonical
  // member order — fixed by the set contents, not by which client asked —
  // so the result is identical for every group member and invariant to the
  // thread count (groups write disjoint `personalized` entries).
  struct SetGroup {
    std::vector<int> canonical;
    std::vector<int> clients;
  };
  std::vector<SetGroup> groups;
  {
    std::unordered_map<std::vector<int>, size_t, SetHash> index;
    index.reserve(participants.size());
    for (int i : participants) {
      const auto& set = sets[static_cast<size_t>(i)];
      FEDGTA_CHECK(!set.empty());
      std::vector<int> canonical = set;
      std::sort(canonical.begin(), canonical.end());
      auto [it, inserted] =
          index.try_emplace(std::move(canonical), groups.size());
      if (inserted) {
        groups.push_back(SetGroup{it->first, {}});
      }
      groups[it->second].clients.push_back(i);
    }
  }
  {
    MetricsRegistry& obs = GlobalMetrics();
    obs.GetCounter("fedgta.aggregation.unique_sets")
        .Increment(static_cast<int64_t>(groups.size()));
    const int64_t reused =
        static_cast<int64_t>(participants.size()) -
        static_cast<int64_t>(groups.size());
    if (reused > 0) {
      obs.GetCounter("fedgta.aggregation.dedup_reused").Increment(reused);
    }
  }
  ParallelForChunked(
      0, static_cast<int64_t>(groups.size()),
      [&](int64_t lo, int64_t hi) {
        std::vector<float> out;
        for (int64_t g = lo; g < hi; ++g) {
          const auto& set = groups[static_cast<size_t>(g)].canonical;
          double weight_sum = 0.0;
          for (int j : set) {
            weight_sum +=
                options.disable_confidence
                    ? static_cast<double>(std::max<int64_t>(
                          1, train_sizes[static_cast<size_t>(j)]))
                    : metrics[static_cast<size_t>(j)].confidence;
          }
          out.assign(params[static_cast<size_t>(set.front())].size(), 0.0f);
          for (int j : set) {
            const double weight =
                options.disable_confidence
                    ? static_cast<double>(std::max<int64_t>(
                          1, train_sizes[static_cast<size_t>(j)]))
                    : metrics[static_cast<size_t>(j)].confidence;
            const float w = weight_sum > 0.0
                                ? static_cast<float>(weight / weight_sum)
                                : 1.0f / static_cast<float>(set.size());
            Axpy(w, params[static_cast<size_t>(j)], out);
          }
          const auto& clients = groups[static_cast<size_t>(g)].clients;
          for (size_t c = 0; c + 1 < clients.size(); ++c) {
            (*personalized)[static_cast<size_t>(clients[c])] = out;
          }
          (*personalized)[static_cast<size_t>(clients.back())] =
              std::move(out);
        }
      },
      /*min_chunk=*/1);
  if (aggregation_sets_out != nullptr) *aggregation_sets_out = std::move(sets);
}

}  // namespace fedgta
