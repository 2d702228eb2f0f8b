#ifndef FEDGTA_CORE_SIMILARITY_H_
#define FEDGTA_CORE_SIMILARITY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "linalg/matrix.h"

namespace fedgta {

/// How the server evaluates the Eq. (6) pairwise-similarity predicate.
///  * kExact — the determinism oracle: every participant pair goes through
///    the GEMM-backed cosine block.
///  * kLsh — sign-random-projection signatures prescreen pairs; only pairs
///    whose Hamming-estimated similarity could reach ε are exact-checked
///    (see SimilarityPlaneOptions::lsh_margin for the pruning bound).
///  * kAuto — kExact below auto_lsh_min_participants participants, kLsh at
///    or above it, so small rounds keep the oracle and large rounds prune.
enum class SimilarityMode { kExact, kAuto, kLsh };

/// Parses "exact" / "auto" / "lsh". Returns false on any other input.
bool ParseSimilarityMode(std::string_view name, SimilarityMode* mode);
std::string_view SimilarityModeName(SimilarityMode mode);

/// Tunables of the server similarity plane (DESIGN.md §5h).
struct SimilarityPlaneOptions {
  SimilarityMode mode = SimilarityMode::kExact;
  /// Signature length L in bits (rounded up to a multiple of 64). For a
  /// pair at angle fraction t = θ/π, each bit mismatches independently
  /// with probability t, so h/L concentrates around t.
  int lsh_signature_bits = 256;
  /// Prescreen slack δ in angle-fraction units: a pair is pruned only when
  /// h/L > acos(ε)/π + δ. A pair with true similarity >= ε survives the
  /// screen except with probability <= exp(-2 δ² L) (Hoeffding) — 6e-8 per
  /// pair at the defaults — so pruned pairs are below ε with overwhelming
  /// probability and the LSH sets match the exact oracle's.
  double lsh_margin = 0.18;
  /// Seed of the shared random projection matrix (deterministic per round
  /// shape: the matrix depends only on this seed and the moment dimension).
  uint64_t lsh_seed = 0x5EED5111ull;
  /// kAuto switches to kLsh at this participant count.
  int auto_lsh_min_participants = 512;
};

/// What the candidate generator did for one set-building call. Pairs are
/// counted ordered (each (i, j), i != j, judged from i's row).
struct SimilarityStats {
  int64_t pairs_exact = 0;
  int64_t pairs_pruned = 0;
  SimilarityMode mode_used = SimilarityMode::kExact;
};

/// Half-open range [begin, end) of positions in a participants list: the
/// rows whose aggregation sets one set-building call produces. A regional
/// aggregator passes its shard's contiguous slice of the round's survivor
/// frame (DESIGN.md §5k); single-server callers pass every row.
struct ParticipantRows {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Compact participants-indexed cosine block: values(a, b) is the cosine
/// similarity of participants[a] and participants[b]. Unlike the legacy
/// clients x clients matrix this allocates only participants², which is
/// what partial participation actually needs.
struct SimilarityBlock {
  std::vector<int> participants;
  Matrix values;  // participants x participants; unit diagonal
};

/// Stacks the participants' moment vectors into one row-major matrix with
/// every row L2-normalized (all-zero rows stay zero, matching the
/// CosineSimilarity convention that zero vectors have similarity 0).
Matrix StackNormalizedMoments(const std::vector<std::vector<float>>& moments,
                              const std::vector<int>& participants);

/// The full cosine block in one M·Mᵀ through the backend GEMM. Used by the
/// adaptive-ε extension (which needs every pair for the quantile) and as
/// the inspection/test surface of the plane.
SimilarityBlock ComputeSimilarityBlock(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants);

/// Aggregation sets (Eq. 6) from a precomputed block: for participant
/// i = participants[a], the set is {i} followed by every participant j
/// (in participants order) with values(a, b) >= ε. Indexed by client id;
/// ids outside `participants` get empty sets. `num_clients` sizes the
/// returned table.
std::vector<std::vector<int>> SetsFromSimilarityBlock(
    const SimilarityBlock& block, int num_clients, double epsilon);

/// q-quantile (q in [0, 1]) of the off-diagonal pairwise similarities.
/// Returns 0 with fewer than two participants.
double SimilarityQuantile(const SimilarityBlock& block, double q);

/// Aggregation sets, paper Eq. (6): for each participant i,
///   I_i = { j participant : cos(M_i, M_j) >= epsilon } ∪ {i}.
/// Returned indexed by client id; non-participants get empty sets. This
/// overload always runs the exact GEMM path (the determinism oracle).
std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon);

/// Mode-dispatched set building: kExact sweeps the GEMM block in row
/// panels; kLsh prescreens pairs with packed sign-random-projection
/// signatures and exact-checks only the survivors through the same backend
/// GEMM kernel, so surviving pairs get bit-identical similarity values and
/// the resulting sets match the exact oracle whenever the screen has no
/// false negatives (see lsh_margin). Candidate generation is timed under
/// the `similarity_candidates` phase and counted in the
/// `fedgta.similarity.pairs_{exact,pruned}` counters.
///
/// Only the participants at positions `rows` get sets (every other id's
/// set is empty), each judged against all participants. Every row's set,
/// pair counts and similarity values are independent of the range (and of
/// the thread count), so calls over disjoint ranges covering the list
/// reproduce one full call exactly; kAuto decides on the full list's size.
std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon,
    const SimilarityPlaneOptions& plane, ParticipantRows rows,
    SimilarityStats* stats = nullptr);

}  // namespace fedgta

#endif  // FEDGTA_CORE_SIMILARITY_H_
