#include "core/moments.h"

#include <algorithm>

#include "common/check.h"
#include "obs/phase.h"

namespace fedgta {

// One sweep per hop: each node's row mean is taken once, its deviations
// d = y - mean once, and every order accumulates from the running power
// d, d·d, d·d·d, ... into a K × |Y| accumulator. Each output element adds
// one term per node in ascending node order, so the result matches a
// separate pow() sweep per order bit for bit
// (MomentsTest.OnePassMatchesPowOracle).
std::vector<float> MixedMoments(const std::vector<Matrix>& y_hops,
                                int moment_order) {
  FEDGTA_PHASE_SCOPE("moments");
  FEDGTA_CHECK(!y_hops.empty());
  FEDGTA_CHECK_GE(moment_order, 1);
  const int64_t n = y_hops.front().rows();
  const int64_t c = y_hops.front().cols();
  FEDGTA_CHECK_GT(n, 0);
  FEDGTA_CHECK_GT(c, 0);

  const size_t width = static_cast<size_t>(c);
  const size_t per_hop = static_cast<size_t>(moment_order) * width;
  std::vector<float> moments;
  moments.reserve(y_hops.size() * per_hop);
  std::vector<double> acc(per_hop);
  std::vector<double> dev(width);
  std::vector<double> power(width);
  for (const Matrix& y : y_hops) {
    FEDGTA_CHECK_EQ(y.rows(), n);
    FEDGTA_CHECK_EQ(y.cols(), c);
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      const float* row = y.data() + i * c;
      double mean = 0.0;
      for (size_t j = 0; j < width; ++j) mean += row[j];
      mean /= static_cast<double>(c);
      for (size_t j = 0; j < width; ++j) {
        dev[j] = static_cast<double>(row[j]) - mean;
        power[j] = dev[j];
        acc[j] += dev[j];
      }
      for (int order = 2; order <= moment_order; ++order) {
        double* acc_order = acc.data() + static_cast<size_t>(order - 1) * width;
        for (size_t j = 0; j < width; ++j) {
          power[j] *= dev[j];
          acc_order[j] += power[j];
        }
      }
    }
    for (double sum : acc) {
      moments.push_back(static_cast<float>(sum / static_cast<double>(n)));
    }
  }
  return moments;
}

}  // namespace fedgta
