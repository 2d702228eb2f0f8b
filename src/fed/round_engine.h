#ifndef FEDGTA_FED_ROUND_ENGINE_H_
#define FEDGTA_FED_ROUND_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/federated.h"
#include "fed/executor.h"
#include "fed/failure.h"
#include "fed/run_result.h"
#include "fed/simulation.h"
#include "fed/strategy.h"

namespace fedgta {

/// Histogram of whole-round wall seconds, recorded once per round by the
/// engine and read back by the status endpoints.
inline constexpr char kRoundSecondsMetric[] = "fed.round.seconds";

/// Status-endpoint blocks both distributed servers render: round and RPC
/// latency quantiles, and the Eq. 6/7 plane counters (DESIGN.md §5h;
/// empty until the first FedGTA aggregation).
std::string RenderRoundLatencies();
std::string RenderSimilarityCounters();

/// One participant's outcome of a round's local training, as a plane
/// reports it to the engine.
struct ClientReport {
  /// Round whose weights the client trained from.
  int round = 0;
  ClientFate fate = ClientFate::kHealthy;
  /// False when the transport lost the exchange (dead worker, blown
  /// deadline, mismatched reply): the engine counts the participant as
  /// dropped and records its fate as "rpc_failed".
  bool delivered = true;
  /// Client-side seconds for the ClientFate timeline event (0 in process).
  double seconds = 0.0;
  /// The upload. `client_id` is always set; for a dropout nothing else is.
  /// A plane that keeps tensors elsewhere (the hierarchy's sharded FedGTA
  /// plane) leaves `params`/`moments` empty.
  LocalResult result;
};

/// Where clients run — the only thing that differs between the in-process
/// Simulation, the flat worker fleet, and the hierarchical root. Every
/// policy a round applies (sampling, fates, survivor filtering or async
/// admission, totals, evaluation weighting, checkpoint cadence) lives in
/// RoundEngine instead. See DESIGN.md §5l.
class ClientPlane {
 public:
  using Deliver = std::function<void(ClientReport report)>;

  ClientPlane() = default;
  ClientPlane(const ClientPlane&) = delete;
  ClientPlane& operator=(const ClientPlane&) = delete;
  virtual ~ClientPlane() = default;

  /// Runs participants[i]'s local round under fates[i] (a dropout does no
  /// work and is never contacted) and hands one report per participant,
  /// dropouts included, to `deliver`. Synchronous runs need every report
  /// before Train returns. In an async run a plane may return first and
  /// deliver later from its own threads (the flat fleet's feed threads);
  /// `deliver` is then thread-safe and outlives the plane's Finish().
  virtual void Train(int round, const std::vector<int>& participants,
                     const std::vector<ClientFate>& fates,
                     const Deliver& deliver) = 0;

  /// The server step over the round's survivors (ascending ids, results
  /// index-aligned). Called only with at least one survivor.
  virtual Status Aggregate(int round, const std::vector<int>& survivors,
                           const std::vector<LocalResult>& results) = 0;

  /// Simulated communication volume of one round's aggregated uploads.
  virtual Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) = 0;

  /// Per-client test/val accuracy of every client's served model, indexed
  /// by client id (arrays pre-sized to the client count, zeroed). Clients a
  /// plane could not reach keep evaluated[id] == 0 and drop out of the
  /// weighted reduction.
  virtual Status Evaluate(int round, std::vector<double>* test_acc,
                          std::vector<double>* val_acc,
                          std::vector<char>* evaluated) = 0;

  /// Called once when the run ends, successfully or not, before the final
  /// metrics snapshot: stop dispatch threads, say goodbye to peers.
  virtual void Finish() {}
};

/// The FedGTA round loop, written once for every plane: sample
/// participants from the run's sampling stream, draw fates from the pure
/// FailurePlan schedule, train through the plane, filter survivors (sync) or admit
/// through the AsyncUpdateQueue with the staleness discount (async), run
/// the plane's Eq. 6/7 server step, account totals, metrics and timeline
/// events, evaluate on schedule with one client-order weighted reduction,
/// and checkpoint on cadence. Bit-identity between planes follows from
/// this being the only loop.
class RoundEngine {
 public:
  /// Saves the run state after `completed_rounds` (the bytes are the
  /// caller's; only the in-process Simulation checkpoints).
  using CheckpointFn =
      std::function<Status(int completed_rounds, const Rng& sampling_rng,
                           double best_val, const fed::RunResult& partial)>;

  /// `config.seed` drives sampling; `shards` (one per client) supply the
  /// eval weights and must outlive Run(), as must `plane`.
  RoundEngine(const SimulationConfig& config,
              const std::vector<ClientData>& shards, ClientPlane* plane);

  /// Distributed planes: every RPC of round r carries {trace_id, r}, and
  /// RoundEnd events report the round's bytes on the wire.
  void SetTraceId(uint64_t trace_id) { trace_id_ = trace_id; }
  void SetCheckpoint(CheckpointFn fn) { checkpoint_ = std::move(fn); }
  /// Continues a checkpointed run after `completed_rounds`.
  void Resume(int completed_rounds, const std::string& sampling_rng_state,
              double best_val, fed::RunResult partial);

  /// Drives the remaining rounds. `setup_seconds` is left to the caller.
  Result<fed::RunResult> Run();

 private:
  Status RunRounds(fed::RunResult* result);
  /// Async admission of one report (any thread).
  void Admit(ClientReport report);
  Status Evaluate(int round, double* test_accuracy, double* val_accuracy);

  const SimulationConfig config_;
  const std::vector<ClientData>& shards_;
  ClientPlane* plane_;
  FailurePlan plan_;
  uint64_t trace_id_ = 0;
  CheckpointFn checkpoint_;

  int start_round_ = 0;
  std::string rng_state_;
  double best_val_ = -1.0;
  fed::RunResult partial_;

  // Async state. Members, not locals: a plane's threads may deliver until
  // Finish() returns.
  std::unique_ptr<AsyncUpdateQueue> queue_;
  std::atomic<int64_t> rpc_failures_{0};
};

}  // namespace fedgta

#endif  // FEDGTA_FED_ROUND_ENGINE_H_
