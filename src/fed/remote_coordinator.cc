#include "fed/remote_coordinator.h"

#include <condition_variable>
#include <deque>
#include <thread>

#include "common/string_util.h"
#include "common/timer.h"
#include "fed/round_engine.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace {

LocalResult ToLocalResult(int client_id, net::TrainResponseMsg&& resp) {
  LocalResult r;
  r.client_id = client_id;
  r.params = std::move(resp.weights);
  r.num_samples = resp.num_samples;
  r.loss = resp.loss;
  r.metrics.confidence = resp.confidence;
  r.metrics.moments = std::move(resp.moments);
  return r;
}

/// One enqueued train dispatch of the async runtime. Weights are
/// snapshotted at enqueue time — the update trains from the server state of
/// its dispatch round even if aggregation has since moved on.
struct FeedCommand {
  int round = 0;
  int client_id = 0;
  ClientFate fate = ClientFate::kHealthy;
  std::vector<float> weights;
  ClientPlane::Deliver deliver;
};

/// Bounded per-worker command queue between the round loop (producer) and
/// one feed thread (consumer). The bound is backpressure only — the
/// engine's wait rule is what actually limits in-flight work.
struct WorkerFeed {
  static constexpr size_t kMaxDepth = 128;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<FeedCommand> queue;
  bool stop = false;
};

/// The flat client plane: every participant trains on the worker hosting
/// it. Sync rounds dispatch through WorkerFleet::TrainRound (one thread per
/// worker, a barrier at the end); async rounds enqueue onto one long-lived
/// feed thread per worker, so commands on one connection stay sequential
/// and in round order while workers stream concurrently.
class FleetPlane : public ClientPlane {
 public:
  FleetPlane(Strategy* strategy, WorkerFleet* workers,
             FleetMetricsMerger* merger, uint64_t trace_id, bool async)
      : strategy_(strategy),
        workers_(workers),
        merger_(merger),
        trace_id_(trace_id),
        async_(async) {}
  ~FleetPlane() override { StopFeeds(); }

  void Train(int round, const std::vector<int>& participants,
             const std::vector<ClientFate>& fates,
             const Deliver& deliver) override {
    if (async_) {
      Enqueue(round, participants, fates, deliver);
      return;
    }
    std::vector<net::TrainResponseMsg> responses;
    std::vector<Status> rpc_status;
    workers_->TrainRound(round, participants, fates, WeightsFor(), merger_,
                         &responses, &rpc_status);
    for (size_t i = 0; i < participants.size(); ++i) {
      ClientReport report;
      report.round = round;
      report.fate = fates[i];
      report.delivered = rpc_status[i].ok();
      report.seconds = responses[i].seconds;
      report.result = ToLocalResult(participants[i], std::move(responses[i]));
      deliver(std::move(report));
    }
  }

  Status Aggregate(int /*round*/, const std::vector<int>& survivors,
                   const std::vector<LocalResult>& results) override {
    strategy_->Aggregate(survivors, results);
    return OkStatus();
  }

  Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) override {
    return strategy_->RoundCommunication(results);
  }

  Status Evaluate(int /*round*/, std::vector<double>* test_acc,
                  std::vector<double>* val_acc,
                  std::vector<char>* evaluated) override {
    workers_->EvalClients(WeightsFor(), merger_, test_acc, val_acc, evaluated);
    return OkStatus();
  }

  void Finish() override {
    StopFeeds();
    workers_->Shutdown();
  }

 private:
  WorkerFleet::WeightsFn WeightsFor() const {
    return [this](int id) { return CopyParams(strategy_->ParamsFor(id)); };
  }

  void Enqueue(int round, const std::vector<int>& participants,
               const std::vector<ClientFate>& fates, const Deliver& deliver) {
    if (feeders_.empty()) StartFeeds();
    for (size_t i = 0; i < participants.size(); ++i) {
      const int id = participants[i];
      if (fates[i] == ClientFate::kDropout) {
        // Never contacted — identical to the sync path, so the remote
        // client's RNG streams stay aligned with the in-process executor.
        ClientReport report;
        report.round = round;
        report.fate = fates[i];
        report.result.client_id = id;
        deliver(std::move(report));
        continue;
      }
      FeedCommand cmd;
      cmd.round = round;
      cmd.client_id = id;
      cmd.fate = fates[i];
      cmd.weights = CopyParams(strategy_->ParamsFor(id));
      cmd.deliver = deliver;
      WorkerFeed& feed = *feeds_[static_cast<size_t>(workers_->owner(id))];
      std::unique_lock<std::mutex> lock(feed.mutex);
      feed.cv.wait(lock, [&feed] {
        return feed.queue.size() < WorkerFeed::kMaxDepth;
      });
      feed.queue.push_back(std::move(cmd));
      feed.cv.notify_all();
    }
  }

  void StartFeeds() {
    std::vector<WorkerLink>& links = workers_->links();
    for (size_t w = 0; w < links.size(); ++w) {
      feeds_.push_back(std::make_unique<WorkerFeed>());
    }
    for (size_t w = 0; w < links.size(); ++w) {
      feeders_.emplace_back([this, w] { Feed(w); });
    }
  }

  void StopFeeds() {
    for (std::unique_ptr<WorkerFeed>& feed : feeds_) {
      std::lock_guard<std::mutex> lock(feed->mutex);
      feed->stop = true;
      feed->cv.notify_all();
    }
    for (std::thread& t : feeders_) t.join();
    feeders_.clear();
    feeds_.clear();
  }

  /// Feed thread of worker `w`. Every command ends in exactly one deliver
  /// call — a report with the upload, or an undelivered one on a transport
  /// failure — which is what lets the engine's wait rule terminate.
  void Feed(size_t w) {
    WorkerFeed& feed = *feeds_[w];
    WorkerLink& link = workers_->links()[w];
    while (true) {
      FeedCommand cmd;
      {
        std::unique_lock<std::mutex> lock(feed.mutex);
        feed.cv.wait(lock,
                     [&feed] { return feed.stop || !feed.queue.empty(); });
        if (feed.queue.empty()) return;  // stop requested, queue drained
        cmd = std::move(feed.queue.front());
        feed.queue.pop_front();
        feed.cv.notify_all();  // wake a producer blocked on the bound
      }
      TraceContext cmd_ctx;
      cmd_ctx.trace_id = trace_id_;
      cmd_ctx.round = cmd.round;
      ScopedTraceContext adopt(cmd_ctx);
      net::TrainResponseMsg resp;
      Status rpc = link.channel.ok()
                       ? OkStatus()
                       : InternalError("worker connection is down");
      if (rpc.ok()) {
        net::TrainRequestMsg req;
        req.round = cmd.round;
        req.client_id = cmd.client_id;
        req.weights = std::move(cmd.weights);
        rpc = link.channel.Call(req, &resp, link.compress.get());
      }
      if (rpc.ok() &&
          (resp.client_id != cmd.client_id || resp.round != cmd.round)) {
        rpc = InternalError("response for a different dispatch");
      }
      ClientReport report;
      report.round = cmd.round;
      report.fate = cmd.fate;
      report.delivered = rpc.ok();
      if (!rpc.ok()) {
        link.health->healthy.store(false, std::memory_order_relaxed);
        report.result.client_id = cmd.client_id;
        cmd.deliver(std::move(report));
        continue;
      }
      link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                          std::memory_order_relaxed);
      link.health->responses.fetch_add(1, std::memory_order_relaxed);
      merger_->Apply(workers_->worker_index_base() + static_cast<int>(w),
                     resp.metrics);
      report.seconds = resp.seconds;
      report.result = ToLocalResult(cmd.client_id, std::move(resp));
      cmd.deliver(std::move(report));
    }
  }

  Strategy* strategy_;
  WorkerFleet* workers_;
  FleetMetricsMerger* merger_;
  uint64_t trace_id_;
  bool async_;
  std::vector<std::unique_ptr<WorkerFeed>> feeds_;
  std::vector<std::thread> feeders_;
};
}  // namespace

RemoteCoordinator::RemoteCoordinator(const RemoteFedConfig& config)
    : config_(config) {}

Status RemoteCoordinator::ValidateConfig() const {
  if (config_.num_workers < 1) {
    return InvalidArgumentError("num_workers must be >= 1");
  }
  if (config_.num_workers > config_.split.num_clients) {
    return InvalidArgumentError(
        "more workers than clients: every worker must host at least one");
  }
  return ValidateRemoteConfig(config_);
}

Status RemoteCoordinator::Listen(int port) {
  FEDGTA_RETURN_IF_ERROR(ValidateConfig());
  Result<net::ServerSocket> server =
      net::ServerSocket::Listen(port, config_.num_workers + 8);
  FEDGTA_RETURN_IF_ERROR(server.status());
  server_ = std::move(*server);
  // Bind (but do not yet serve) the status endpoint: callers learn the
  // ephemeral port now and may still fork worker processes safely — the
  // accept thread only starts inside Run().
  if (config_.status_port >= 0) {
    FEDGTA_RETURN_IF_ERROR(status_.Bind(config_.status_port));
  }
  return OkStatus();
}

Status RemoteCoordinator::Handshake() {
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config_.strategy, config_.strategy_options);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  if (!(*strategy)->Capabilities().remote_executable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' mutates per-client server state inside TrainClient and cannot "
        "run on remote workers (see DESIGN.md §5e)");
  }
  if (config_.sim.async && !(*strategy)->Capabilities().async_capable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' is not async-capable: its aggregation assumes strict round "
        "alignment (see DESIGN.md §5i)");
  }
  strategy_ = std::move(*strategy);

  // The server holds no models — just the deterministic dataset, for shard
  // sizes (Initialize weights, eval denominators). Workers materialize the
  // same dataset from the same recipe.
  data_ = MaterializeFederatedDataset(config_.dataset, config_.seed,
                                      config_.split, config_.federated);
  const int n_clients = data_.num_clients();
  if (config_.num_workers > n_clients) {
    return InvalidArgumentError(
        "more workers than clients: every worker must host at least one");
  }

  std::vector<std::vector<int>> ownership(
      static_cast<size_t>(config_.num_workers));
  for (int id = 0; id < n_clients; ++id) {
    ownership[static_cast<size_t>(id % config_.num_workers)].push_back(id);
  }

  WorkerFleetOptions options;
  options.wire = ToWireConfig(config_);
  options.compress = config_.compress;
  options.compress_topk = config_.compress_topk;
  options.rpc = config_.rpc;
  options.accept_timeout_ms = config_.accept_timeout_ms;
  FEDGTA_RETURN_IF_ERROR(
      workers_.Accept(server_, n_clients, ownership, options));
  if (workers_.init_params().empty()) {
    return InternalError(
        "no worker reported the common initialization (client 0 unhosted?)");
  }

  std::vector<int64_t> train_sizes;
  train_sizes.reserve(data_.clients.size());
  for (const ClientData& shard : data_.clients) {
    train_sizes.push_back(shard.num_train());
  }
  strategy_->Initialize(n_clients, train_sizes, workers_.init_params());

  // Publish the fleet to the status endpoint (its thread is already
  // serving; until this point it reports "handshake in progress").
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    fleet_status_ = workers_.StatusSnapshot();
  }
  return OkStatus();
}

Result<SimulationResult> RemoteCoordinator::Run() {
  if (!server_.valid()) {
    return FailedPreconditionError("call Listen() before Run()");
  }
  trace_id_ = NewTraceId();
  // First thread this process creates — anyone forking must have done so
  // before Run() (the loopback tests rely on this ordering).
  if (status_.bound()) {
    status_.Start([this](const std::string& cmd) { return RenderStatus(cmd); });
  }
  WallTimer setup_timer;
  FEDGTA_RETURN_IF_ERROR(Handshake());
  const double setup_seconds = setup_timer.Seconds();

  SimulationConfig sim = config_.sim;
  sim.seed = config_.seed;
  FleetPlane plane(strategy_.get(), &workers_, &fleet_, trace_id_, sim.async);
  RoundEngine engine(sim, data_.clients, &plane);
  engine.SetTraceId(trace_id_);
  Result<SimulationResult> result = engine.Run();
  if (result.ok()) result->setup_seconds = setup_seconds;
  return result;
}

std::string RemoteCoordinator::RenderStatus(const std::string& command) const {
  if (command == "metrics.json") return GlobalMetrics().ToJson();
  if (command == "metrics") return GlobalMetrics().ToText();
  if (command == "timeline") return GlobalTimeline().ToJsonLines();

  // Default: the human-readable "status" summary.
  const int64_t now_us = internal_obs::TraceNowMicros();
  std::string out = "fedgta server status\n";
  out += StrFormat("round: %d/%d\n", GlobalTimeline().current_round(),
                   config_.sim.rounds);
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (fleet_status_.empty()) {
      out += "workers: handshake in progress\n";
    } else {
      out += StrFormat("workers: %zu\n", fleet_status_.size());
      for (size_t w = 0; w < fleet_status_.size(); ++w) {
        const WorkerStatusEntry& entry = fleet_status_[w];
        const int64_t last =
            entry.health->last_response_us.load(std::memory_order_relaxed);
        const int64_t lag_ms = last > 0 ? (now_us - last) / 1000 : -1;
        out += StrFormat(
            "  worker %zu: %s clients=%d responses=%lld lag_ms=%lld\n", w,
            entry.health->healthy.load(std::memory_order_relaxed)
                ? "healthy"
                : "DOWN",
            entry.num_clients,
            static_cast<long long>(
                entry.health->responses.load(std::memory_order_relaxed)),
            static_cast<long long>(lag_ms));
      }
    }
  }
  out += RenderRoundLatencies();
  // Wire plane (DESIGN.md §5j): where the round bytes actually go, and
  // what compression is buying. bytes_raw counts what the same traffic
  // would have cost uncompressed, so ratio = raw/wire (1.00 when no codec
  // is engaged).
  {
    std::string plane;
    const Counter* wire = GlobalMetrics().FindCounter("net.bytes_wire");
    const Counter* raw = GlobalMetrics().FindCounter("net.bytes_raw");
    if (wire != nullptr && wire->value() > 0) {
      const int64_t wire_bytes = wire->value();
      const int64_t raw_bytes = raw != nullptr ? raw->value() : wire_bytes;
      plane += StrFormat("  net.bytes_wire: %lld\n",
                         static_cast<long long>(wire_bytes));
      plane += StrFormat("  net.bytes_raw: %lld\n",
                         static_cast<long long>(raw_bytes));
      plane += StrFormat("  compression_ratio: %.2fx (%lld bytes saved)\n",
                         static_cast<double>(raw_bytes) /
                             static_cast<double>(wire_bytes),
                         static_cast<long long>(raw_bytes - wire_bytes));
    }
    for (const char* name :
         {"net.bytes_sent.TrainRequest", "net.bytes_sent.TrainResponse",
          "net.bytes_sent.EvalRequest", "net.bytes_sent.EvalResponse",
          "net.bytes_sent.AssignConfig", "net.bytes_sent.ConfigAck"}) {
      const Counter* c = GlobalMetrics().FindCounter(name);
      if (c == nullptr || c->value() == 0) continue;
      plane += StrFormat("  %s: %lld\n", name,
                         static_cast<long long>(c->value()));
    }
    if (const Histogram* h =
            GlobalMetrics().FindHistogram("net.compress.seconds");
        h != nullptr) {
      const Histogram::Snapshot s = h->snapshot();
      if (s.count > 0) {
        plane += StrFormat("  net.compress.seconds: count=%lld p50=%.6f\n",
                           static_cast<long long>(s.count), s.Quantile(0.5));
      }
    }
    if (!plane.empty()) {
      out += StrFormat("net (compress=%s):\n", config_.compress.c_str()) +
             plane;
    }
  }
  out += RenderSimilarityCounters();
  // Async runtime plane (DESIGN.md §5i) — present when running --async.
  if (config_.sim.async) {
    std::string plane;
    for (const char* name :
         {"fed.async.admitted", "fed.async.stale_dropped",
          "fed.async.superseded", "fed.async.undelivered"}) {
      const Counter* c = GlobalMetrics().FindCounter(name);
      if (c == nullptr) continue;
      plane += StrFormat("  %s: %lld\n", name,
                         static_cast<long long>(c->value()));
    }
    if (const Gauge* g = GlobalMetrics().FindGauge("fed.async.queue_depth");
        g != nullptr) {
      plane += StrFormat("  fed.async.queue_depth: %.0f\n", g->value());
    }
    if (!plane.empty()) {
      out += StrFormat("async (tau=%d, decay=%.2f):\n",
                       config_.sim.staleness_tau,
                       config_.sim.staleness_decay) +
             plane;
    }
  }
  return out;
}

}  // namespace fedgta
