#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "linalg/ops.h"
#include "obs/metrics.h"
#include "obs/phase.h"

namespace fedgta {

namespace {

/// Ordered participant pairs judged by Eq. 6.
constexpr char kPairsCounter[] = "fedgta.similarity.pairs_exact";

void RecordPairs(int64_t pairs) {
  if (pairs > 0) GlobalMetrics().GetCounter(kPairsCounter).Increment(pairs);
}

/// Row panel height for the exact sweep: bounds the transient block buffer
/// to ~8 MiB regardless of the participant count.
int64_t SweepPanelRows(int64_t p) {
  return std::clamp<int64_t>((int64_t{1} << 21) / std::max<int64_t>(1, p),
                             16, std::max<int64_t>(1, p));
}

double QuantileOfPairValues(std::vector<float>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t idx = std::min(
      values->size() - 1,
      static_cast<size_t>(q * static_cast<double>(values->size())));
  // Same element the historical full std::sort selected, at O(n²) instead
  // of O(n² log n): nth_element places values[idx] in its sorted position.
  std::nth_element(values->begin(),
                   values->begin() + static_cast<int64_t>(idx),
                   values->end());
  return (*values)[idx];
}

}  // namespace

Matrix StackNormalizedMoments(const std::vector<std::vector<float>>& moments,
                              const std::vector<int>& participants) {
  const int64_t p = static_cast<int64_t>(participants.size());
  const int n = static_cast<int>(moments.size());
  int64_t d = 0;
  for (size_t a = 0; a < participants.size(); ++a) {
    const int i = participants[a];
    FEDGTA_CHECK(i >= 0 && i < n);
    const auto& m = moments[static_cast<size_t>(i)];
    if (a == 0) {
      d = static_cast<int64_t>(m.size());
    } else {
      FEDGTA_CHECK_EQ(m.size(), static_cast<size_t>(d));
    }
  }
  Matrix stacked(p, d);
  ParallelForChunked(0, p, [&](int64_t lo, int64_t hi) {
    for (int64_t a = lo; a < hi; ++a) {
      const auto& src =
          moments[static_cast<size_t>(participants[static_cast<size_t>(a)])];
      float* dst = stacked.data() + a * d;
      double sq = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        sq += static_cast<double>(src[static_cast<size_t>(j)]) *
              static_cast<double>(src[static_cast<size_t>(j)]);
      }
      const double norm = std::sqrt(sq);
      if (norm > 0.0) {
        for (int64_t j = 0; j < d; ++j) {
          dst[j] =
              static_cast<float>(src[static_cast<size_t>(j)] / norm);
        }
      } else {
        std::fill(dst, dst + d, 0.0f);
      }
    }
  });
  return stacked;
}

SimilarityBlock ComputeSimilarityBlock(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants) {
  FEDGTA_PHASE_SCOPE("similarity");
  SimilarityBlock block;
  block.participants = participants;
  const Matrix normalized = StackNormalizedMoments(moments, participants);
  const int64_t p = normalized.rows();
  block.values.EnsureShape(p, p);
  GemmRowBlockABt(normalized, 0, p, normalized, &block.values);
  // Historical convention: participants have a unit diagonal even when
  // their moment vector is all-zero.
  for (int64_t a = 0; a < p; ++a) block.values(a, a) = 1.0f;
  return block;
}

std::vector<std::vector<int>> SetsFromSimilarityBlock(
    const SimilarityBlock& block, int num_clients, double epsilon) {
  const int64_t p = block.values.rows();
  const float eps = static_cast<float>(epsilon);
  std::vector<std::vector<int>> sets(static_cast<size_t>(num_clients));
  for (int64_t a = 0; a < p; ++a) {
    const int i = block.participants[static_cast<size_t>(a)];
    FEDGTA_CHECK(i >= 0 && i < num_clients);
    auto& set = sets[static_cast<size_t>(i)];
    set.push_back(i);
    for (int64_t b = 0; b < p; ++b) {
      if (b == a) continue;
      if (block.values(a, b) >= eps) {
        set.push_back(block.participants[static_cast<size_t>(b)]);
      }
    }
  }
  RecordPairs(p * (p - 1));
  return sets;
}

double SimilarityQuantile(const SimilarityBlock& block, double q) {
  FEDGTA_CHECK_GE(q, 0.0);
  FEDGTA_CHECK_LE(q, 1.0);
  const int64_t p = block.values.rows();
  std::vector<float> values;
  values.reserve(static_cast<size_t>(p * (p - 1) / 2));
  for (int64_t a = 0; a < p; ++a) {
    for (int64_t b = a + 1; b < p; ++b) {
      values.push_back(block.values(a, b));
    }
  }
  return QuantileOfPairValues(&values, q);
}

std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon) {
  return BuildAggregationSets(
      moments, participants, epsilon,
      ParticipantRows{0, static_cast<int64_t>(participants.size())});
}

std::vector<std::vector<int>> BuildAggregationSets(
    const std::vector<std::vector<float>>& moments,
    const std::vector<int>& participants, double epsilon,
    ParticipantRows rows) {
  const Matrix normalized = StackNormalizedMoments(moments, participants);
  const int64_t p = normalized.rows();
  FEDGTA_CHECK(0 <= rows.begin && rows.begin <= rows.end && rows.end <= p)
      << "participant rows [" << rows.begin << ", " << rows.end
      << ") outside [0, " << p << ")";
  // Sweep the cosine block in row panels through the backend GEMM;
  // per-element values are bit-identical to the one-shot full block
  // (chunk-invariance contract of GemmRows).
  FEDGTA_PHASE_SCOPE("similarity");
  const float eps = static_cast<float>(epsilon);
  std::vector<std::vector<int>> sets(moments.size());
  const int64_t panel = SweepPanelRows(p);
  Matrix block;
  for (int64_t r0 = rows.begin; r0 < rows.end; r0 += panel) {
    const int64_t r1 = std::min<int64_t>(rows.end, r0 + panel);
    block.EnsureShape(r1 - r0, p);
    GemmRowBlockABt(normalized, r0, r1, normalized, &block);
    ParallelForChunked(
        r0, r1,
        [&](int64_t lo, int64_t hi) {
          for (int64_t a = lo; a < hi; ++a) {
            const float* row = block.data() + (a - r0) * p;
            auto& set = sets[static_cast<size_t>(
                participants[static_cast<size_t>(a)])];
            set.push_back(participants[static_cast<size_t>(a)]);
            for (int64_t b = 0; b < p; ++b) {
              if (b == a) continue;
              if (row[b] >= eps) {
                set.push_back(participants[static_cast<size_t>(b)]);
              }
            }
          }
        },
        /*min_chunk=*/1);
  }
  RecordPairs((rows.end - rows.begin) * (p - 1));
  return sets;
}

}  // namespace fedgta
