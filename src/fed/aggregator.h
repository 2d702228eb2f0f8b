#ifndef FEDGTA_FED_AGGREGATOR_H_
#define FEDGTA_FED_AGGREGATOR_H_

#include <string>

#include "common/status.h"
#include "net/rpc.h"

namespace fedgta {
namespace fed {

struct AggregatorOptions {
  /// Root coordinator address.
  std::string host = "127.0.0.1";
  int port = 0;
  /// Worker-facing listening port; 0 = ephemeral.
  int listen_port = 0;
  /// When non-empty, the bound worker port and this aggregator's assigned
  /// index are published here ("<port>\n<agg_index>\n", written atomically
  /// via rename) right after ShardAssign — launch scripts poll the file to
  /// learn where to point the shard's workers.
  std::string port_file;
  /// Own live status endpoint (net/status.h): 0 = ephemeral, negative =
  /// disabled. The bound port is reported to the root in ShardReady, which
  /// probes it live for its mid-tier table.
  int status_port = -1;
  /// Connect retry/backoff plus the handshake receive deadline for the
  /// uplink; the downlink worker fleet runs on the knobs the root ships in
  /// ShardAssign.
  net::RpcOptions rpc;
  /// Receive timeout of the serve loop (covers the gap between rounds
  /// while the root waits on other shards); 0 waits forever.
  int idle_timeout_ms = 0;
};

/// One regional aggregator process (DESIGN.md §5k): dials the root with a
/// v5 aggregator Hello, receives its contiguous client shard plus worker
/// slice via ShardAssign, accepts its workers through the shared
/// WorkerFleet handshake, and then serves the root's routed envelopes —
/// TrainShard dispatch, the shard-local half of the Eq. 6/7 plane
/// (ShardPlane: core Eq. 6 for the shard's rows of the broadcast survivor
/// frame, local-set Eq. 7), the chained partial passes, and EvalShard. In
/// the FedGTA plane the personalized parameter table lives here, sharded:
/// neither the root nor any single process ever holds every participant's
/// parameters.
///
/// Relay mode (fedavg/fedprox) reduces this process to a fan-out hop:
/// the root's global download rides in on TrainShard/EvalShard and the
/// survivors' full weights ride back up unchanged.
class RegionalAggregator {
 public:
  explicit RegionalAggregator(const AggregatorOptions& options);

  /// Runs the full aggregator lifetime. Returns OK after a clean Shutdown
  /// exchange; any transport or protocol failure surfaces as the
  /// corresponding error Status.
  Status Run();

 private:
  AggregatorOptions options_;
};

}  // namespace fed
}  // namespace fedgta

#endif  // FEDGTA_FED_AGGREGATOR_H_
