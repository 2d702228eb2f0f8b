#ifndef FEDGTA_CORE_FEDGTA_METRICS_H_
#define FEDGTA_CORE_FEDGTA_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/similarity.h"
#include "graph/graph.h"
#include "linalg/csr.h"
#include "linalg/matrix.h"

namespace fedgta {

/// Settings of the deleted Eq. 6 similarity modes. Nothing in the library
/// reads them: Eq. 6 always runs the exact GEMM sweep (DESIGN.md §5h).
/// They remain only so the end-to-end benchmark (perfbench/bench_main.cc),
/// which still sets them, keeps compiling; they go once it stops.
enum class SimilarityMode { kExact, kAuto };
struct SimilarityPlaneOptions {
  SimilarityMode mode = SimilarityMode::kExact;
  uint64_t lsh_seed = 0;
};

/// FedGTA hyperparameters (paper §3.1 defaults: α = 1/2, k = 5).
struct FedGtaOptions {
  /// Teleport weight of the label propagation (Eq. 3).
  float alpha = 0.5f;
  /// Label propagation steps (Eq. 3).
  int k = 5;
  /// Moment order K (Eq. 5).
  int moment_order = 3;
  /// Similarity threshold ε (Eq. 6).
  double epsilon = 0.3;
  /// Ablation: "w/o Mom." — every participant lands in every aggregation
  /// set (confidence-only weighting).
  bool disable_moments = false;
  /// Ablation: "w/o Conf." — aggregation weights proportional to client
  /// train-set sizes (FedAvg weighting inside the personalized set).
  bool disable_confidence = false;

  // --- Extensions beyond the paper (its §5 future-work directions) ---

  /// FedGTA+feat: additionally upload mixed moments of the k-step
  /// propagated *node features* (first `feature_moment_dims` dimensions),
  /// concatenated to the soft-label moments. "A promising avenue ... is to
  /// leverage additional information provided by local models during
  /// training, such as k-layer propagated features" (paper §5).
  bool use_feature_moments = false;
  /// Feature dimensions included in the feature moments (cost bound).
  int feature_moment_dims = 16;

  /// Adaptive aggregation: instead of a fixed ε, use the q-quantile of the
  /// observed pairwise moment similarities each round ("exploring an
  /// adaptive aggregation mechanism", paper §5).
  bool adaptive_epsilon = false;
  double adaptive_quantile = 0.5;

  /// Unread; see SimilarityPlaneOptions.
  SimilarityPlaneOptions similarity;
};

/// Everything a client uploads to the FedGTA server besides its weights
/// (Algorithm 1, line 11).
struct ClientMetrics {
  /// Local smoothing confidence H (Eq. 4).
  double confidence = 0.0;
  /// Flat mixed-moments vector M (Eq. 5), length k * K * num_classes.
  std::vector<float> moments;
};

/// Round-invariant precomputations of ComputeClientMetrics for one fixed
/// (graph, features) pair: the Eq. (3) propagation operator, the self-loop
/// degrees of Eq. (4), and — under FedGTA+feat — the propagated-feature
/// moment block, which depends only on the (static) node features. One
/// cache per client; it is filled on first use and reused while the option
/// fields it was built under stay unchanged (any change rebuilds it). Not
/// shared between threads: each client owns its cache, and the round
/// executor runs at most one task per client at a time.
struct ClientMetricsCache {
  bool ready = false;
  /// Option fields the cached values were built under.
  float alpha = 0.0f;
  int k = 0;
  int moment_order = 0;
  bool use_feature_moments = false;
  int feature_moment_dims = 0;
  /// LabelPropagationOperator(graph).
  CsrMatrix op;
  /// SelfLoopDegrees(graph).
  std::vector<float> degrees;
  /// L2-normalized FedGTA+feat moment block (empty unless enabled).
  std::vector<float> feature_moments;
};

/// Client-side metric computation (Algorithm 1, lines 5-10): runs Eq. (3)
/// label propagation on the softmaxed `logits` over `graph`, then computes
/// Eq. (4) confidence and Eq. (5) moments. When
/// `options.use_feature_moments` is set and `features` is non-null, the
/// FedGTA+feat extension appends moments of the propagated features. A
/// non-null `cache` skips the round-invariant work (operator build, degree
/// scan, feature propagation) after the first call; `graph` and `features`
/// must be the same objects the cache was built from.
ClientMetrics ComputeClientMetrics(const Graph& graph, const Matrix& logits,
                                   const FedGtaOptions& options,
                                   const Matrix* features = nullptr,
                                   ClientMetricsCache* cache = nullptr);

/// Server-side personalized aggregation (Algorithm 2 / Eq. 6-7). For each
/// participant i, averages participants' `params` restricted to its
/// aggregation set, weighted by smoothing confidence (or by `train_sizes`
/// under the w/o-Conf ablation). Writes each participant's personalized
/// weights into (*personalized)[i]; non-participants are untouched.
void FedGtaAggregate(const std::vector<ClientMetrics>& metrics,
                     const std::vector<std::vector<float>>& params,
                     const std::vector<int64_t>& train_sizes,
                     const std::vector<int>& participants,
                     const FedGtaOptions& options,
                     std::vector<std::vector<float>>* personalized,
                     std::vector<std::vector<int>>* aggregation_sets_out =
                         nullptr);

}  // namespace fedgta

#endif  // FEDGTA_CORE_FEDGTA_METRICS_H_
