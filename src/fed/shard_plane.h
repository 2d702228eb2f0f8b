#ifndef FEDGTA_FED_SHARD_PLANE_H_
#define FEDGTA_FED_SHARD_PLANE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/fedgta_metrics.h"
#include "core/similarity.h"
#include "fed/role.h"

namespace fedgta {
namespace fed {

/// One survivor's round upload as staged on its shard.
struct ShardUpload {
  int client_id = 0;
  std::vector<float> params;
  std::vector<float> moments;
  double confidence = 0.0;
};

/// Shard-local half of the FedGTA Eq. 6/7 plane (DESIGN.md §5k): the
/// regional aggregator stages its shard's uploads here. Eq. 6 is the core
/// `BuildAggregationSets` over the round's global survivor frame, limited
/// to the shard's contiguous rows, so every set, pair count and similarity
/// value is the single-server one. Eq. 7 accumulates members in ascending
/// id order; chained across shards in ascending shard order (the shards
/// are contiguous in client id), the partial accumulations replay the
/// single-server float-addition sequence bit for bit, which is what the
/// hierarchy's bit-identity contract rests on.
///
/// Nothing here talks to the network; the aggregator (and the sharded
/// bench arm, in-process) drive the exchange and feed the results back in.
class ShardPlane {
 public:
  /// `train_sizes` covers all clients (the aggregator materializes the full
  /// dataset recipe, so Eq. 7 train-size weights need no RPC).
  ShardPlane(int num_clients, ShardRange shard, const FedGtaOptions& options,
             std::vector<int64_t> train_sizes);

  /// Stages one round's surviving uploads (ascending client id, all within
  /// the shard), replacing the previous round's.
  void StageRound(std::vector<ShardUpload> uploads);
  /// Staged survivor ids, ascending.
  const std::vector<int>& staged() const { return staged_; }

  /// Eq. 6 for the staged rows. `survivors` is the round's global survivor
  /// frame (ascending client ids) and `moments` their uploaded moment
  /// vectors, aligned. Returns, per staged row, the row's own id followed
  /// by every survivor whose cosine reaches ε, in frame order; `stats`
  /// receives the rows' pair counts. A malformed frame — ids out of range
  /// or not ascending, misaligned or ragged rows, a row of another length
  /// than the staged uploads, or a shard slice that is not exactly the
  /// staged survivors with their uploaded moments — is InvalidArgument.
  Result<std::vector<std::vector<int>>> BuildSets(
      const std::vector<int>& survivors,
      std::vector<std::vector<float>> moments, SimilarityStats* stats) const;

  /// Full Eq. 7 for a set whose members all live on this shard.
  std::vector<float> AggregateLocalSet(const std::vector<int>& canonical) const;

  /// Chained Eq. 7 partial: Axpy this shard's staged members of `canonical`
  /// onto *acc (pre-sized to the param count) in ascending id order, with
  /// w = weight / weight_sum (weight_sum <= 0 falls back to 1/|set|).
  /// Visiting shards in ascending shard order replays the single-server
  /// accumulation sequence exactly.
  void AccumulatePartial(const std::vector<int>& canonical, double weight_sum,
                         std::vector<float>* acc) const;

  const ShardRange& shard() const { return shard_; }

 private:
  /// Eq. 7 weight of staged row `row` (confidence, or the train-size
  /// fallback under disable_confidence).
  double RowWeight(int row) const;

  int num_clients_;
  ShardRange shard_;
  FedGtaOptions options_;
  std::vector<int64_t> train_sizes_;

  // --- per-round state, aligned with staged_ ---
  std::vector<int> staged_;
  std::vector<std::vector<float>> params_;
  std::vector<std::vector<float>> moments_;
  std::vector<double> confidences_;
  std::unordered_map<int, int> row_of_;  // client id -> staged row
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_SHARD_PLANE_H_
