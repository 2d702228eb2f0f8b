#ifndef FEDGTA_CORE_SIMILARITY_H_
#define FEDGTA_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace fedgta {

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
/// Returned indexed by client id; non-participants get empty sets.
std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon);

/// Eq. (6) for the participants at positions `rows` only (every other id's
/// set is empty), each judged against all participants: the cosine block
/// is swept in row panels through the backend GEMM, so every value is
/// bit-identical to the full block's. The ordered pairs judged are counted
/// in `fedgta.similarity.pairs_exact`. Every row's set and pair count are
/// independent of the range (and of the thread count), so calls over
/// disjoint ranges covering the list reproduce one full call exactly.
std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon,
    ParticipantRows rows);

}  // namespace fedgta

#endif  // FEDGTA_CORE_SIMILARITY_H_
