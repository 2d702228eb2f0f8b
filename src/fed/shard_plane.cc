#include "fed/shard_plane.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"
#include "linalg/ops.h"

namespace fedgta {
namespace fed {

ShardPlane::ShardPlane(int num_clients, ShardRange shard,
                       const FedGtaOptions& options,
                       std::vector<int64_t> train_sizes)
    : num_clients_(num_clients),
      shard_(shard),
      options_(options),
      train_sizes_(std::move(train_sizes)) {
  FEDGTA_CHECK_EQ(train_sizes_.size(), static_cast<size_t>(num_clients_));
}

void ShardPlane::StageRound(std::vector<ShardUpload> uploads) {
  staged_.clear();
  params_.clear();
  moments_.clear();
  confidences_.clear();
  row_of_.clear();
  for (ShardUpload& up : uploads) {
    FEDGTA_CHECK(shard_.contains(up.client_id))
        << "client " << up.client_id << " staged outside shard ["
        << shard_.begin << ", " << shard_.end << ")";
    FEDGTA_CHECK(staged_.empty() || staged_.back() < up.client_id)
        << "uploads must arrive in ascending client id";
    row_of_[up.client_id] = static_cast<int>(staged_.size());
    staged_.push_back(up.client_id);
    params_.push_back(std::move(up.params));
    moments_.push_back(std::move(up.moments));
    confidences_.push_back(up.confidence);
  }
}

Result<std::vector<std::vector<int>>> ShardPlane::BuildSets(
    const std::vector<int>& survivors,
    std::vector<std::vector<float>> moments) const {
  if (moments.size() != survivors.size()) {
    return InvalidArgumentError(
        "survivor frame misaligned: " + std::to_string(survivors.size()) +
        " ids, " + std::to_string(moments.size()) + " moment rows");
  }
  if (survivors.empty()) {
    return InvalidArgumentError("empty survivor frame");
  }
  const size_t dim =
      moments_.empty() ? moments.front().size() : moments_.front().size();
  for (size_t g = 0; g < survivors.size(); ++g) {
    const int id = survivors[g];
    if (id < 0 || id >= num_clients_ || (g > 0 && id <= survivors[g - 1])) {
      return InvalidArgumentError(
          "survivor frame ids must be ascending client ids in [0, " +
          std::to_string(num_clients_) + ")");
    }
    if (moments[g].size() != dim) {
      return InvalidArgumentError("moment row of client " +
                                  std::to_string(id) + " has length " +
                                  std::to_string(moments[g].size()) +
                                  ", expected " + std::to_string(dim));
    }
  }
  // Ascending ids over a contiguous shard: the shard's rows are one slice
  // of the frame, and it must be exactly what this shard staged.
  const auto first = std::lower_bound(survivors.begin(), survivors.end(),
                                      shard_.begin);
  const auto last = std::lower_bound(first, survivors.end(), shard_.end);
  const ParticipantRows rows{first - survivors.begin(),
                             last - survivors.begin()};
  if (!std::equal(first, last, staged_.begin(), staged_.end())) {
    return InvalidArgumentError(
        "survivor frame disagrees with the shard's staged survivors");
  }
  for (size_t a = 0; a < staged_.size(); ++a) {
    const std::vector<float>& row =
        moments[static_cast<size_t>(rows.begin) + a];
    if (row.size() != moments_[a].size() ||
        std::memcmp(row.data(), moments_[a].data(),
                    row.size() * sizeof(float)) != 0) {
      return InvalidArgumentError("frame moments of client " +
                                  std::to_string(staged_[a]) +
                                  " differ from its upload");
    }
  }

  // Core Eq. 6 takes a client-id-indexed moment table.
  std::vector<std::vector<float>> by_id(static_cast<size_t>(num_clients_));
  for (size_t g = 0; g < survivors.size(); ++g) {
    by_id[static_cast<size_t>(survivors[g])] = std::move(moments[g]);
  }
  std::vector<std::vector<int>> all =
      BuildAggregationSets(by_id, survivors, options_.epsilon, rows);
  std::vector<std::vector<int>> sets;
  sets.reserve(staged_.size());
  for (int id : staged_) {
    sets.push_back(std::move(all[static_cast<size_t>(id)]));
  }
  return sets;
}

double ShardPlane::RowWeight(int row) const {
  return options_.disable_confidence
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(
                          staged_[static_cast<size_t>(row)])]))
             : confidences_[static_cast<size_t>(row)];
}

std::vector<float> ShardPlane::AggregateLocalSet(
    const std::vector<int>& canonical) const {
  FEDGTA_CHECK(!canonical.empty());
  double weight_sum = 0.0;
  for (int j : canonical) {
    const auto it = row_of_.find(j);
    FEDGTA_CHECK(it != row_of_.end()) << "client " << j << " not staged here";
    weight_sum += RowWeight(it->second);
  }
  std::vector<float> out(params_.front().size(), 0.0f);
  AccumulatePartial(canonical, weight_sum, &out);
  return out;
}

void ShardPlane::AccumulatePartial(const std::vector<int>& canonical,
                                   double weight_sum,
                                   std::vector<float>* acc) const {
  for (int j : canonical) {
    const auto it = row_of_.find(j);
    if (it == row_of_.end()) continue;
    const float w =
        weight_sum > 0.0
            ? static_cast<float>(RowWeight(it->second) / weight_sum)
            : 1.0f / static_cast<float>(canonical.size());
    Axpy(w, params_[static_cast<size_t>(it->second)], *acc);
  }
}

}  // namespace fed
}  // namespace fedgta
