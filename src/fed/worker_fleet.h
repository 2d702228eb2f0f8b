#ifndef FEDGTA_FED_WORKER_FLEET_H_
#define FEDGTA_FED_WORKER_FLEET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fed/failure.h"
#include "net/rpc.h"
#include "obs/metrics_delta.h"

namespace fedgta {

/// Live per-worker signals, updated by the dispatch threads and read by
/// the status endpoint — atomics only, no lock on the hot path.
struct WorkerHealth {
  std::atomic<bool> healthy{true};
  /// Trace-clock time of the last successful response; 0 before any.
  std::atomic<int64_t> last_response_us{0};
  std::atomic<int64_t> responses{0};
};

struct WorkerLink {
  net::RpcChannel channel;
  /// Hosted client ids, ascending.
  std::vector<int> client_ids;
  /// Per-connection compression state (DESIGN.md §5j); null under
  /// compress = "off", keeping that path's bytes exactly the uncompressed
  /// wire format. Touched only by the one thread currently driving this
  /// worker's channel.
  std::unique_ptr<net::compress::Link> compress;
  /// Shared with the published fleet status (the endpoint may outlive a
  /// rebuilt fleet).
  std::shared_ptr<WorkerHealth> health = std::make_shared<WorkerHealth>();
};

/// A fresh copy of a served parameter vector — what a download ships.
inline std::vector<float> CopyParams(std::span<const float> params) {
  return std::vector<float>(params.begin(), params.end());
}

/// One worker's row in a status-endpoint fleet table.
struct WorkerStatusEntry {
  std::shared_ptr<WorkerHealth> health;
  int num_clients = 0;
};

struct WorkerFleetOptions {
  /// Experiment identity shipped in every AssignConfig.
  net::WireFedConfig wire;
  /// Wire codec for every worker connection ("off" = uncompressed; any
  /// other value must name a registered codec) and delta top-k.
  std::string compress = "off";
  int compress_topk = 0;
  net::RpcOptions rpc;
  int accept_timeout_ms = 60000;
  /// Global index of this fleet's first worker. The flat server owns the
  /// whole fleet (base 0); a regional aggregator owns a slice of it, and
  /// the base keeps worker trace pids and worker.<id>.* metric namespaces
  /// globally unique across aggregators.
  int worker_index_base = 0;
};

/// The worker-facing half of a federation server: accepts a fleet of
/// worker connections, runs the Hello/AssignConfig/ConfigAck handshake
/// (version check, codec assignment, clock-sync echo), and drives
/// train/eval dispatch over them. Both the flat RemoteCoordinator and the
/// regional aggregator (DESIGN.md §5k) delegate here, so the worker
/// protocol has exactly one server-side implementation — a worker cannot
/// tell which kind of process accepted it.
class WorkerFleet {
 public:
  /// Returns a fresh copy of the weights a client starts from. Called on
  /// dispatch threads; must be safe for concurrent distinct clients.
  using WeightsFn = std::function<std::vector<float>(int client_id)>;

  /// Accepts one worker per `ownership` entry (ownership[w] = the
  /// ascending client ids worker w hosts; ids are global, < num_clients)
  /// and completes the handshake with each. Enforces the protocol
  /// version, worker role, and cross-worker parameter-count agreement.
  Status Accept(net::ServerSocket& server, int num_clients,
                const std::vector<std::vector<int>>& ownership,
                const WorkerFleetOptions& options);

  /// Dispatches one training round: participants[i] with fates[i] (a
  /// dropout is never contacted) onto their hosting workers, one dispatch
  /// thread per worker, responses landing in participant-index-aligned
  /// slots. Transport failures surface in (*rpc_status)[i]; the caller
  /// maps them onto dropped participants. Must run with the round's
  /// TraceContext installed — dispatch threads re-install it.
  void TrainRound(int round, const std::vector<int>& participants,
                  const std::vector<ClientFate>& fates,
                  const WeightsFn& weights_for, FleetMetricsMerger* merger,
                  std::vector<net::TrainResponseMsg>* responses,
                  std::vector<Status>* rpc_status);

  /// Evaluates every hosted client on its worker; arrays are indexed by
  /// global client id and must be pre-sized to num_clients. Clients on
  /// dead workers keep evaluated[id] == 0.
  void EvalClients(const WeightsFn& weights_for, FleetMetricsMerger* merger,
                   std::vector<double>* test_acc, std::vector<double>* val_acc,
                   std::vector<char>* evaluated);

  /// Best-effort goodbye; a dead worker just errors out of the exchange.
  void Shutdown();

  std::vector<WorkerLink>& links() { return links_; }
  const std::vector<WorkerLink>& links() const { return links_; }
  /// Hosting worker (local index) of a client; -1 when unhosted here.
  int owner(int client_id) const {
    return owner_[static_cast<size_t>(client_id)];
  }
  int worker_index_base() const { return worker_index_base_; }
  /// Agreed model parameter count; -1 before Accept.
  int64_t param_count() const { return param_count_; }
  /// Common initialization reported by the worker hosting client 0;
  /// empty when no accepted worker hosts client 0 (possible for a
  /// regional fleet whose shard excludes it — the caller decides).
  const std::vector<float>& init_params() const { return init_params_; }
  std::vector<WorkerStatusEntry> StatusSnapshot() const;

 private:
  std::vector<WorkerLink> links_;
  /// client id -> local worker index; -1 unhosted.
  std::vector<int> owner_;
  int worker_index_base_ = 0;
  int64_t param_count_ = -1;
  std::vector<float> init_params_;
};

}  // namespace fedgta

#endif  // FEDGTA_FED_WORKER_FLEET_H_
