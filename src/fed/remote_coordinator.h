#ifndef FEDGTA_FED_REMOTE_COORDINATOR_H_
#define FEDGTA_FED_REMOTE_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fed/remote_config.h"
#include "fed/worker_fleet.h"
#include "net/rpc.h"
#include "net/status.h"
#include "obs/metrics_delta.h"

namespace fedgta {

/// FedGTA server over TCP: accepts worker connections, hands each a shard
/// assignment, and drives the federated rounds by exchanging weights (and
/// FedGTA H/M uploads) with the workers hosting each participant.
///
/// Faithfulness contract: Run() is a thin wrapper over the same RoundEngine
/// (fed/round_engine.h) the in-process Simulation drives, so sampling,
/// fates, survivor filtering, aggregation input order and eval weighting
/// are literally the same code. Only the ClientPlane differs: here it is
/// the WorkerFleet, whose workers replicate the executor's client-side
/// semantics. With healthy workers the returned curve is bit-identical to
/// the in-process simulation of the same config (the loopback test pins
/// this).
///
/// Failure mapping: an unreachable worker, a broken connection, or a blown
/// `rpc.deadline_ms` (the straggler deadline) turns the affected
/// participants into dropped clients for the round — the server aggregates
/// over the survivors and moves on, exactly like a FailurePlan dropout.
/// Injected fates (FailureConfig) are computed on both sides from the pure
/// FateOf schedule: dropouts are never contacted, stragglers/crashed
/// clients train remotely (fully / truncated) and their uploads are
/// discarded here.
///
/// Async runtime (config.sim.async; DESIGN.md §5i): instead of the hard
/// round barrier, the fleet plane enqueues train requests onto per-worker
/// feed threads whose completed updates stream into the engine's
/// AsyncUpdateQueue. With staleness_tau = 0 the wait rule degenerates to
/// the full barrier and the run is bit-identical to the synchronous path.
class RemoteCoordinator {
 public:
  explicit RemoteCoordinator(const RemoteFedConfig& config);

  /// Binds the listening socket (port 0 = ephemeral; see port()). When
  /// `config.status_port` >= 0 the status endpoint is bound here too (no
  /// thread yet — callers may still fork). Workers may start dialing as
  /// soon as this returns.
  Status Listen(int port);
  int port() const { return server_.port(); }
  /// Bound status endpoint port; -1 when disabled.
  int status_port() const { return status_.port(); }

  /// Accepts `num_workers` workers, runs the handshake, and drives all
  /// rounds. Returns the same SimulationResult an in-process run would.
  /// The status endpoint (if bound) starts serving at the top of this call
  /// and keeps answering until the coordinator is destroyed, so the final
  /// state stays inspectable after the run.
  Result<SimulationResult> Run();

 private:
  Status ValidateConfig() const;
  /// Accepts workers, exchanges Hello/AssignConfig/ConfigAck, initializes
  /// the strategy from the reported common init weights.
  Status Handshake();
  /// Renders one status-endpoint reply (runs on the endpoint's thread).
  std::string RenderStatus(const std::string& command) const;

  RemoteFedConfig config_;
  net::ServerSocket server_;
  std::unique_ptr<Strategy> strategy_;
  FederatedDataset data_;
  /// Worker connections + per-round dispatch (shared with the hierarchy's
  /// regional aggregators; see fed/worker_fleet.h).
  WorkerFleet workers_;

  /// One id per Run(), stamped into every RPC envelope so worker spans
  /// stitch to this run's timeline.
  uint64_t trace_id_ = 0;
  /// Merges piggybacked worker metrics deltas into worker.<id>.* / fleet.*.
  FleetMetricsMerger fleet_{&GlobalMetrics()};
  net::StatusServer status_;
  /// Guards fleet_status_ (published once after the handshake, read by the
  /// status endpoint thread).
  mutable std::mutex status_mutex_;
  std::vector<WorkerStatusEntry> fleet_status_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_REMOTE_COORDINATOR_H_
