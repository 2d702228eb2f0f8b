#ifndef FEDGTA_FED_HIERARCHY_H_
#define FEDGTA_FED_HIERARCHY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/fedgta_metrics.h"
#include "fed/remote_config.h"
#include "fed/role.h"
#include "fed/round_engine.h"
#include "fed/simulation.h"
#include "fed/strategy.h"
#include "fed/worker_fleet.h"
#include "net/rpc.h"
#include "net/status.h"
#include "obs/metrics_delta.h"

namespace fedgta {
namespace fed {

/// Envelope bodies of the v5 routed root ↔ aggregator plane (DESIGN.md
/// §5k). Each struct is the nested serialize payload of one EnvelopeKind:
/// RoutedMsg carries it as an opaque string, so the wire protocol never
/// grows a new MsgType for a new hierarchical phase. Encode/Decode pairs
/// follow the checkpoint conventions (fixed order, length-prefixed
/// vectors); bodies are versioned implicitly by the link's protocol
/// version — a peer at any other version is refused at Hello time.

/// root → agg: everything one regional aggregator needs before it can
/// accept its worker slice — the worker-facing wire config (relayed
/// verbatim into AssignConfig), its shard of the client space, the worker
/// split, the transport knobs of its fleet, and the server-side Eq. 6/7
/// options the flat server would have kept to itself.
struct ShardAssignBody {
  net::WireFedConfig config;
  int32_t agg_index = 0;
  int32_t num_aggregators = 1;
  int32_t shard_begin = 0;
  int32_t shard_end = 0;
  /// Workers this aggregator accepts; its first worker's global index.
  int32_t num_workers = 1;
  int32_t worker_index_base = 0;
  // Worker-fleet transport knobs.
  std::string compress = "off";
  int32_t compress_topk = 0;
  int32_t rpc_deadline_ms = 30000;
  int32_t rpc_max_attempts = 3;
  int32_t rpc_backoff_ms = 50;
  int32_t accept_timeout_ms = 60000;
  /// Relay mode (fedavg/fedprox): survivor weights ship up to the root,
  /// which aggregates centrally; the Eq. 6/7 plane below stays idle.
  bool relay = false;
  // Server-side FedGTA aggregation knobs (never shipped to workers).
  double epsilon = 0.3;
  bool disable_confidence = false;
  /// Clock sync echo (same NTP midpoint scheme as AssignConfig): root
  /// trace clock at Hello arrival / at this send.
  int64_t hello_recv_us = 0;
  int64_t assign_send_us = 0;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: the shard is wired up. `init_params` is non-empty only from
/// the shard hosting client 0 (the common initialization); `status_port`
/// is the aggregator's own live status endpoint (-1 when disabled).
struct ShardReadyBody {
  int64_t param_count = 0;
  std::vector<float> init_params;
  int32_t status_port = -1;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: client 0's fresh weights, broadcast so every shard seeds
/// its personalized-parameter table identically (FedGTA plane only).
struct InitModelBody {
  std::vector<float> params;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: one round's shard participants (ascending global ids) with
/// their injected fates. In relay mode the strategy's download rides along
/// once (fedavg/fedprox serve the same global vector to every client); in
/// the FedGTA plane the aggregator serves its own personalized table and
/// `global_params` stays empty.
struct TrainShardBody {
  std::vector<int32_t> participants;
  std::vector<uint32_t> fates;  // ClientFate, aligned
  std::vector<float> global_params;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: per-participant round outcome, aligned with the request.
/// The FedGTA plane also ships each survivor's moment vector (Eq. 5) so
/// the root can assemble the round's survivor frame; params stay staged at
/// the aggregator. Relay mode ships survivor weights instead. Tensor lists
/// are aligned with the request too (empty for non-survivors) or wholly
/// empty in the other plane.
struct TrainShardDoneBody {
  std::vector<uint32_t> rpc_ok;
  std::vector<double> seconds;
  std::vector<double> losses;
  std::vector<int64_t> num_samples;
  std::vector<double> confidences;
  std::vector<std::vector<float>> moments;  // FedGTA survivors only
  std::vector<std::vector<float>> weights;  // relay survivors only
  /// Shard totals of the simulated communication volume, computed at the
  /// aggregator over its survivor results with the base
  /// Strategy::RoundCommunication formula (integer sums — order-free).
  int64_t upload_floats = 0;
  int64_t download_floats = 0;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: the round's survivor frame — every survivor's id
/// (ascending = shard-major) and uploaded moment vector, aligned. Each
/// aggregator runs core Eq. 6 over the frame for its own rows only.
struct SetBuildBody {
  std::vector<int32_t> survivors;
  std::vector<std::vector<float>> moments;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: the canonical (sorted) aggregation sets of this shard's
/// rows that cross a shard boundary, deduplicated per shard; sets wholly
/// inside the shard were aggregated locally and only their count travels.
struct SetReportBody {
  std::vector<std::vector<int32_t>> sets;
  int64_t local_unique = 0;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// One cross-shard set's accumulator state in a chained Eq. 7 pass.
struct PartialSet {
  std::vector<int32_t> canonical;
  double weight_sum = 0.0;
  std::vector<float> acc;
};

/// root → agg: the accumulators of every cross-shard set with members on
/// this shard. Visiting shards in ascending shard order replays the
/// single-server left-associated float accumulation exactly (DESIGN.md
/// §5k).
struct PartialAggregateBody {
  std::vector<PartialSet> sets;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: the updated accumulators, aligned with the request.
struct PartialBlockBody {
  std::vector<std::vector<float>> accs;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: final aggregated vectors for the cross-shard sets this
/// shard reported; `report_index` points into the shard's own SetReport
/// order, the aggregator fans each vector out to its rows in that group.
struct GroupDeliverBody {
  std::vector<int64_t> report_index;
  std::vector<std::vector<float>> params;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// root → agg: evaluate every shard client. Relay mode ships the global
/// download; the FedGTA plane evaluates the personalized table.
struct EvalShardBody {
  std::vector<float> global_params;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// agg → root: per-client accuracies for the shard (aligned arrays;
/// `evaluated` = 0 marks clients lost to a dead worker).
struct EvalShardDoneBody {
  std::vector<int32_t> ids;
  std::vector<double> test_accuracy;
  std::vector<double> val_accuracy;
  std::vector<uint32_t> evaluated;

  void Encode(serialize::Writer* w) const;
  Status Decode(serialize::Reader* r);
};

/// Packs `body` into a routed envelope of `kind`.
template <typename Body>
net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round,
                            const Body& body) {
  net::RoutedMsg msg;
  msg.kind = static_cast<uint32_t>(kind);
  msg.round = round;
  serialize::Writer w;
  body.Encode(&w);
  msg.body = w.payload();
  return msg;
}

/// A bodyless envelope (acks, compute-only requests).
net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round);

/// Validates the envelope kind and decodes its body; trailing bytes are a
/// protocol error, exactly like the top-level message framing.
template <typename Body>
Status UnpackEnvelope(const net::RoutedMsg& msg, net::EnvelopeKind kind,
                      Body* out) {
  if (msg.kind != static_cast<uint32_t>(kind)) {
    return InvalidArgumentError(
        std::string("expected envelope ") + net::EnvelopeKindName(kind) +
        ", got " +
        net::EnvelopeKindName(static_cast<net::EnvelopeKind>(msg.kind)));
  }
  serialize::Reader r(msg.body);
  FEDGTA_RETURN_IF_ERROR(out->Decode(&r));
  if (!r.AtEnd()) {
    return InvalidArgumentError(std::string("trailing bytes in ") +
                                net::EnvelopeKindName(kind) + " body");
  }
  return OkStatus();
}

/// The root of a hierarchical federation (DESIGN.md §5k): accepts
/// `config.num_aggregators` regional aggregators (Hello with
/// node_role = kAggregator), deals each a contiguous client shard and
/// worker slice via ShardAssign, and drives the per-round envelope
/// sequence — TrainShard, SetBuild, the chained Eq. 7 partial passes,
/// GroupDeliver, EvalShard. The root never materializes the participants'
/// parameters: in the FedGTA plane only scalars, the survivors' moment
/// vectors, canonical id sets, and per-set accumulators cross its link,
/// and the run result is bit-identical to the single-server plane (see
/// fed::DeterministicEquals).
///
/// Shardable non-FedGTA strategies (fedavg, fedprox) run in relay mode:
/// the root keeps the Strategy and full survivor weights travel through
/// the aggregators unchanged — same results, two hops.
///
/// The root is the hierarchical ClientPlane of the shared RoundEngine
/// (fed/round_engine.h): Run() hands the engine itself, so sampling, fates,
/// survivor filtering and eval weighting are the in-process code.
class RootCoordinator : private ClientPlane {
 public:
  explicit RootCoordinator(const RemoteFedConfig& config);

  /// Binds the aggregator-facing listener and (if configured) the status
  /// endpoint. No threads yet — callers may fork after this.
  Status Listen(int port);
  /// Runs the full federation; returns per-round statistics.
  Result<SimulationResult> Run();

  int port() const { return server_.port(); }
  /// Bound status port, -1 when disabled.
  int status_port() const { return status_.port(); }

 private:
  struct AggregatorLink {
    net::RpcChannel channel;
    ShardRange clients;
    ShardRange workers;
    int status_port = -1;
    /// False once any exchange with this aggregator failed; its clients
    /// drop from later rounds like a dead worker's would.
    bool alive = true;
    std::shared_ptr<WorkerHealth> health = std::make_shared<WorkerHealth>();
  };

  /// One aggregator's row in the status endpoint's mid-tier table.
  struct AggregatorStatusEntry {
    std::shared_ptr<WorkerHealth> health;
    ShardRange clients;
    ShardRange workers;
    int status_port = -1;
  };

  /// One aggregator's slice of the current round.
  struct ShardRoundState {
    std::vector<int> participants;  // ascending global ids
    std::vector<ClientFate> fates;
    TrainShardDoneBody done;
    bool trained = false;  // TrainShard exchange succeeded
    SetReportBody report;
  };

  Status ValidateConfig() const;
  Status Handshake();
  /// One request/response exchange with aggregator `a`; applies the
  /// reply's metrics delta and records link health. A failure marks the
  /// link dead.
  Status CallAggregator(size_t a, const net::RoutedMsg& request,
                        net::RoutedMsg* response);
  /// Runs `fn` over every aggregator with `active[a]` set, one thread
  /// each (the round TraceContext is re-installed); returns per-link
  /// status.
  std::vector<Status> ParallelExchange(
      const std::vector<char>& active,
      const std::function<Status(size_t)>& fn);
  /// The distributed Eq. 6/7 phase sequence over this round's survivors.
  Status AggregateFedGta(int round, const std::vector<int>& survivors,
                         const std::vector<LocalResult>& results);
  /// Eq. 7 weight of one survivor at the root (confidence, or the
  /// train-size fallback) — the same value the shards weight members by.
  double MemberWeight(int client_id,
                      const std::vector<double>& confidence_by_id) const;
  // ClientPlane: TrainShard dispatch, the routed Eq. 6/7 plane (or the
  // relay's central Strategy), EvalShard, and the goodbye down the tree.
  void Train(int round, const std::vector<int>& participants,
             const std::vector<ClientFate>& fates,
             const Deliver& deliver) override;
  Status Aggregate(int round, const std::vector<int>& survivors,
                   const std::vector<LocalResult>& results) override;
  Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) override;
  Status Evaluate(int round, std::vector<double>* test_acc,
                  std::vector<double>* val_acc,
                  std::vector<char>* evaluated) override;
  void Finish() override;
  std::string RenderStatus(const std::string& command) const;

  RemoteFedConfig config_;
  net::ServerSocket server_;
  std::unique_ptr<Strategy> strategy_;  // aggregates only in relay mode
  bool relay_ = false;
  FederatedDataset data_;
  std::vector<int64_t> train_sizes_;
  FedGtaOptions gta_;  // server-side Eq. 6/7 knobs
  int64_t param_count_ = -1;
  std::vector<float> init_params_;
  std::vector<AggregatorLink> aggs_;
  uint64_t trace_id_ = 0;
  /// Aggregator deltas merge under agg.<i>.*; their own worker.*/fleet.*
  /// rollups pass through un-resummed (see FleetMetricsMerger).
  FleetMetricsMerger fleet_{&GlobalMetrics(), "agg"};
  net::StatusServer status_;
  mutable std::mutex status_mutex_;
  std::vector<AggregatorStatusEntry> agg_status_;  // guarded by status_mutex_
  /// Per-survivor confidence of the current round, indexed by client id
  /// (root-side copy for Eq. 7 weight sums).
  std::vector<double> confidence_by_id_;
  /// The current round's per-aggregator slices (Train → Aggregate).
  std::vector<ShardRoundState> round_shards_;
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_HIERARCHY_H_
