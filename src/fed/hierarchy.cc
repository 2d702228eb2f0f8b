#include "fed/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {
namespace fed {
namespace {

void WriteFloatVecList(const std::vector<std::vector<float>>& v,
                       serialize::Writer* w) {
  w->WriteU64(v.size());
  for (const std::vector<float>& x : v) w->WriteFloatVec(x);
}

Status ReadFloatVecList(serialize::Reader* r,
                        std::vector<std::vector<float>>* out) {
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError("truncated vector list");
  }
  out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadFloatVec(&(*out)[i]));
  }
  return OkStatus();
}

void WriteI32VecList(const std::vector<std::vector<int32_t>>& v,
                     serialize::Writer* w) {
  w->WriteU64(v.size());
  for (const std::vector<int32_t>& x : v) w->WriteI32Vec(x);
}

Status ReadI32VecList(serialize::Reader* r,
                      std::vector<std::vector<int32_t>>* out) {
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError("truncated vector list");
  }
  out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&(*out)[i]));
  }
  return OkStatus();
}

}  // namespace

void ShardAssignBody::Encode(serialize::Writer* w) const {
  config.Encode(w);
  w->WriteI32(agg_index);
  w->WriteI32(num_aggregators);
  w->WriteI32(shard_begin);
  w->WriteI32(shard_end);
  w->WriteI32(num_workers);
  w->WriteI32(worker_index_base);
  w->WriteString(compress);
  w->WriteI32(compress_topk);
  w->WriteI32(rpc_deadline_ms);
  w->WriteI32(rpc_max_attempts);
  w->WriteI32(rpc_backoff_ms);
  w->WriteI32(accept_timeout_ms);
  w->WriteBool(relay);
  w->WriteDouble(epsilon);
  w->WriteBool(disable_confidence);
  w->WriteI64(hello_recv_us);
  w->WriteI64(assign_send_us);
}

Status ShardAssignBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(config.Decode(r));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&agg_index));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&num_aggregators));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&shard_begin));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&shard_end));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&num_workers));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&worker_index_base));
  FEDGTA_RETURN_IF_ERROR(r->ReadString(&compress));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&compress_topk));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_deadline_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_max_attempts));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&rpc_backoff_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadI32(&accept_timeout_ms));
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&relay));
  FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&epsilon));
  FEDGTA_RETURN_IF_ERROR(r->ReadBool(&disable_confidence));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&hello_recv_us));
  return r->ReadI64(&assign_send_us);
}

void ShardReadyBody::Encode(serialize::Writer* w) const {
  w->WriteI64(param_count);
  w->WriteFloatVec(init_params);
  w->WriteI32(status_port);
}

Status ShardReadyBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&param_count));
  FEDGTA_RETURN_IF_ERROR(r->ReadFloatVec(&init_params));
  return r->ReadI32(&status_port);
}

void InitModelBody::Encode(serialize::Writer* w) const {
  w->WriteFloatVec(params);
}

Status InitModelBody::Decode(serialize::Reader* r) {
  return r->ReadFloatVec(&params);
}

void TrainShardBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(participants);
  w->WriteU64(fates.size());
  for (uint32_t f : fates) w->WriteU32(f);
  w->WriteFloatVec(global_params);
}

Status TrainShardBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&participants));
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint32_t)) {
    return InvalidArgumentError("truncated fate list");
  }
  fates.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadU32(&fates[i]));
  }
  return r->ReadFloatVec(&global_params);
}

void TrainShardDoneBody::Encode(serialize::Writer* w) const {
  w->WriteU64(rpc_ok.size());
  for (uint32_t ok : rpc_ok) w->WriteU32(ok);
  w->WriteDoubleVec(seconds);
  w->WriteDoubleVec(losses);
  w->WriteI64Vec(num_samples);
  w->WriteDoubleVec(confidences);
  WriteFloatVecList(moments, w);
  WriteFloatVecList(weights, w);
  w->WriteI64(upload_floats);
  w->WriteI64(download_floats);
}

Status TrainShardDoneBody::Decode(serialize::Reader* r) {
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint32_t)) {
    return InvalidArgumentError("truncated rpc_ok list");
  }
  rpc_ok.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadU32(&rpc_ok[i]));
  }
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&seconds));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&losses));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&num_samples));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&confidences));
  FEDGTA_RETURN_IF_ERROR(ReadFloatVecList(r, &moments));
  FEDGTA_RETURN_IF_ERROR(ReadFloatVecList(r, &weights));
  FEDGTA_RETURN_IF_ERROR(r->ReadI64(&upload_floats));
  return r->ReadI64(&download_floats);
}

void SetBuildBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(survivors);
  WriteFloatVecList(moments, w);
}

Status SetBuildBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&survivors));
  return ReadFloatVecList(r, &moments);
}

void SetReportBody::Encode(serialize::Writer* w) const {
  WriteI32VecList(sets, w);
  w->WriteI64(local_unique);
}

Status SetReportBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(ReadI32VecList(r, &sets));
  return r->ReadI64(&local_unique);
}

void PartialAggregateBody::Encode(serialize::Writer* w) const {
  w->WriteU64(sets.size());
  for (const PartialSet& s : sets) {
    w->WriteI32Vec(s.canonical);
    w->WriteDouble(s.weight_sum);
    w->WriteFloatVec(s.acc);
  }
}

Status PartialAggregateBody::Decode(serialize::Reader* r) {
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError("truncated partial-set list");
  }
  sets.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&sets[i].canonical));
    FEDGTA_RETURN_IF_ERROR(r->ReadDouble(&sets[i].weight_sum));
    FEDGTA_RETURN_IF_ERROR(r->ReadFloatVec(&sets[i].acc));
  }
  return OkStatus();
}

void PartialBlockBody::Encode(serialize::Writer* w) const {
  WriteFloatVecList(accs, w);
}

Status PartialBlockBody::Decode(serialize::Reader* r) {
  return ReadFloatVecList(r, &accs);
}

void GroupDeliverBody::Encode(serialize::Writer* w) const {
  w->WriteI64Vec(report_index);
  WriteFloatVecList(params, w);
}

Status GroupDeliverBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI64Vec(&report_index));
  return ReadFloatVecList(r, &params);
}

void EvalShardBody::Encode(serialize::Writer* w) const {
  w->WriteFloatVec(global_params);
}

Status EvalShardBody::Decode(serialize::Reader* r) {
  return r->ReadFloatVec(&global_params);
}

void EvalShardDoneBody::Encode(serialize::Writer* w) const {
  w->WriteI32Vec(ids);
  w->WriteDoubleVec(test_accuracy);
  w->WriteDoubleVec(val_accuracy);
  w->WriteU64(evaluated.size());
  for (uint32_t e : evaluated) w->WriteU32(e);
}

Status EvalShardDoneBody::Decode(serialize::Reader* r) {
  FEDGTA_RETURN_IF_ERROR(r->ReadI32Vec(&ids));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&test_accuracy));
  FEDGTA_RETURN_IF_ERROR(r->ReadDoubleVec(&val_accuracy));
  uint64_t n = 0;
  FEDGTA_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->remaining() / sizeof(uint32_t)) {
    return InvalidArgumentError("truncated evaluated list");
  }
  evaluated.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    FEDGTA_RETURN_IF_ERROR(r->ReadU32(&evaluated[i]));
  }
  return OkStatus();
}

net::RoutedMsg MakeEnvelope(net::EnvelopeKind kind, int round) {
  net::RoutedMsg msg;
  msg.kind = static_cast<uint32_t>(kind);
  msg.round = round;
  return msg;
}

// ---------------------------------------------------------------------------
// RootCoordinator
// ---------------------------------------------------------------------------

RootCoordinator::RootCoordinator(const RemoteFedConfig& config)
    : config_(config), gta_(config.strategy_options.fedgta) {}

Status RootCoordinator::ValidateConfig() const {
  const int aggs = config_.num_aggregators;
  if (aggs < 1) {
    return InvalidArgumentError(
        "num_aggregators must be >= 1 for the hierarchical root");
  }
  if (aggs > config_.split.num_clients) {
    return InvalidArgumentError(
        "more aggregators than clients: every shard must own at least one");
  }
  if (config_.num_workers < aggs) {
    return InvalidArgumentError(
        "need at least one worker per aggregator");
  }
  if (config_.num_workers > config_.split.num_clients) {
    return InvalidArgumentError(
        "more workers than clients: every worker must host at least one");
  }
  if (config_.sim.async) {
    return InvalidArgumentError(
        "the async runtime is not supported with regional aggregators "
        "(DESIGN.md §5k)");
  }
  return ValidateRemoteConfig(config_);
}

Status RootCoordinator::Listen(int port) {
  FEDGTA_RETURN_IF_ERROR(ValidateConfig());
  Result<net::ServerSocket> server =
      net::ServerSocket::Listen(port, config_.num_aggregators + 8);
  FEDGTA_RETURN_IF_ERROR(server.status());
  server_ = std::move(*server);
  // Same bind/start split as the flat coordinator: callers may fork the
  // aggregator processes after Listen(), before any thread exists here.
  if (config_.status_port >= 0) {
    FEDGTA_RETURN_IF_ERROR(status_.Bind(config_.status_port));
  }
  return OkStatus();
}

Status RootCoordinator::Handshake() {
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategy(config_.strategy, config_.strategy_options);
  FEDGTA_RETURN_IF_ERROR(strategy.status());
  const StrategyCapabilities caps = (*strategy)->Capabilities();
  if (!caps.remote_executable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' mutates per-client server state inside TrainClient and cannot "
        "run on remote workers (see DESIGN.md §5e)");
  }
  if (!caps.shardable) {
    return FailedPreconditionError(
        "strategy '" + config_.strategy +
        "' cannot shard its aggregation across regional aggregators "
        "(see DESIGN.md §5k)");
  }
  strategy_ = std::move(*strategy);
  relay_ = !caps.uploads_topology_metrics;
  if (!relay_) {
    if (gta_.adaptive_epsilon) {
      return FailedPreconditionError(
          "adaptive epsilon needs the full similarity block and cannot run "
          "sharded (see DESIGN.md §5k)");
    }
    if (gta_.disable_moments) {
      return FailedPreconditionError(
          "disable_moments makes every participant one global set; run the "
          "flat server instead");
    }
  }

  data_ = MaterializeFederatedDataset(config_.dataset, config_.seed,
                                      config_.split, config_.federated);
  const int n_clients = data_.num_clients();
  if (config_.num_aggregators > n_clients) {
    return InvalidArgumentError(
        "more aggregators than clients: every shard must own at least one");
  }
  if (config_.num_workers > n_clients) {
    return InvalidArgumentError(
        "more workers than clients: every worker must host at least one");
  }
  train_sizes_.clear();
  train_sizes_.reserve(data_.clients.size());
  for (const ClientData& shard : data_.clients) {
    train_sizes_.push_back(shard.num_train());
  }

  const Topology topo(n_clients, config_.num_aggregators,
                      config_.num_workers);
  const int num_aggs = config_.num_aggregators;
  aggs_.clear();
  aggs_.resize(static_cast<size_t>(num_aggs));
  param_count_ = -1;
  init_params_.clear();
  // Assign every aggregator its shard first.
  for (int a = 0; a < num_aggs; ++a) {
    Result<net::Socket> accepted = server_.Accept(config_.accept_timeout_ms);
    FEDGTA_RETURN_IF_ERROR(accepted.status());
    net::RpcChannel channel(std::move(*accepted), config_.rpc);
    net::HelloMsg hello;
    FEDGTA_RETURN_IF_ERROR(net::ReceiveHello(
        channel.socket(), net::NodeRole::kAggregator, &hello));
    const int64_t hello_recv_us = internal_obs::TraceNowMicros();

    AggregatorLink& link = aggs_[static_cast<size_t>(a)];
    link.clients = topo.ClientShard(a);
    link.workers = topo.WorkerShard(a);
    ShardAssignBody assign;
    assign.config = ToWireConfig(config_);
    assign.agg_index = a;
    assign.num_aggregators = num_aggs;
    assign.shard_begin = link.clients.begin;
    assign.shard_end = link.clients.end;
    assign.num_workers = link.workers.size();
    // Worker trace pids / metric namespaces stay globally unique: the
    // aggregators own pids 2..K+1, so global worker g gets index K + g.
    assign.worker_index_base = num_aggs + link.workers.begin;
    assign.compress = config_.compress;
    assign.compress_topk = config_.compress_topk;
    assign.rpc_deadline_ms = config_.rpc.deadline_ms;
    assign.rpc_max_attempts = config_.rpc.max_attempts;
    assign.rpc_backoff_ms = config_.rpc.backoff_ms;
    assign.accept_timeout_ms = config_.accept_timeout_ms;
    assign.relay = relay_;
    assign.epsilon = gta_.epsilon;
    assign.disable_confidence = gta_.disable_confidence;
    assign.hello_recv_us = hello_recv_us;
    assign.assign_send_us = internal_obs::TraceNowMicros();

    FEDGTA_RETURN_IF_ERROR(net::SendMessage(
        channel.socket(),
        MakeEnvelope(net::EnvelopeKind::kShardAssign, 0, assign)));
    link.channel = std::move(channel);
  }
  // Only then collect the replies: an aggregator publishes its worker port
  // after its ShardAssign, so a launcher that starts workers once every
  // port is known would deadlock an assign-then-wait loop. Each ShardReady
  // waits on its aggregator accepting a whole worker slice, so it runs on
  // a stretched deadline (the regular per-RPC budget resumes afterwards).
  for (AggregatorLink& link : aggs_) {
    net::Socket& socket = link.channel.socket();
    FEDGTA_RETURN_IF_ERROR(socket.SetRecvTimeout(config_.accept_timeout_ms +
                                                 config_.rpc.deadline_ms));
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(net::ExpectMessage(socket, &response));
    FEDGTA_RETURN_IF_ERROR(socket.SetRecvTimeout(config_.rpc.deadline_ms));
    ShardReadyBody ready;
    FEDGTA_RETURN_IF_ERROR(
        UnpackEnvelope(response, net::EnvelopeKind::kShardReady, &ready));
    if (param_count_ < 0) param_count_ = ready.param_count;
    if (ready.param_count != param_count_) {
      return FailedPreconditionError(
          "aggregators disagree on the model parameter count");
    }
    if (!ready.init_params.empty()) {
      if (static_cast<int64_t>(ready.init_params.size()) != param_count_) {
        return FailedPreconditionError(
            "init parameter vector length disagrees with the reported count");
      }
      init_params_ = std::move(ready.init_params);
    }
    link.status_port = ready.status_port;
  }
  if (init_params_.empty()) {
    return InternalError(
        "no aggregator reported the common initialization (client 0 "
        "unhosted?)");
  }

  if (relay_) {
    strategy_->Initialize(data_.num_clients(), train_sizes_, init_params_);
  } else {
    // Seed every shard's personalized table with client 0's fresh weights —
    // the same common initialization FedGtaStrategy::Initialize installs.
    InitModelBody init;
    init.params = init_params_;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      net::RoutedMsg response;
      FEDGTA_RETURN_IF_ERROR(CallAggregator(
          a, MakeEnvelope(net::EnvelopeKind::kInitModel, 0, init),
          &response));
      if (response.kind != static_cast<uint32_t>(net::EnvelopeKind::kGroupAck)) {
        return InvalidArgumentError("unexpected InitModel reply");
      }
    }
  }
  confidence_by_id_.assign(static_cast<size_t>(data_.num_clients()), 0.0);

  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    agg_status_.clear();
    for (const AggregatorLink& link : aggs_) {
      agg_status_.push_back(
          {link.health, link.clients, link.workers, link.status_port});
    }
  }
  return OkStatus();
}

Status RootCoordinator::CallAggregator(size_t a,
                                       const net::RoutedMsg& request,
                                       net::RoutedMsg* response) {
  AggregatorLink& link = aggs_[a];
  if (!link.alive || !link.channel.ok()) {
    link.alive = false;
    link.health->healthy.store(false, std::memory_order_relaxed);
    return InternalError("aggregator connection is down");
  }
  const Status rpc = link.channel.Call(request, response);
  if (!rpc.ok()) {
    link.alive = false;
    link.health->healthy.store(false, std::memory_order_relaxed);
    return rpc;
  }
  link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                      std::memory_order_relaxed);
  link.health->responses.fetch_add(1, std::memory_order_relaxed);
  fleet_.Apply(static_cast<int>(a), response->metrics);
  return OkStatus();
}

std::vector<Status> RootCoordinator::ParallelExchange(
    const std::vector<char>& active,
    const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(aggs_.size(), OkStatus());
  const TraceContext ctx = CurrentTraceContext();
  std::vector<std::thread> threads;
  threads.reserve(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (!active[a]) continue;
    threads.emplace_back([&, a] {
      ScopedTraceContext adopt(ctx);
      status[a] = fn(a);
    });
  }
  for (std::thread& t : threads) t.join();
  return status;
}

double RootCoordinator::MemberWeight(
    int client_id, const std::vector<double>& confidence_by_id) const {
  return gta_.disable_confidence
             ? static_cast<double>(std::max<int64_t>(
                   1, train_sizes_[static_cast<size_t>(client_id)]))
             : confidence_by_id[static_cast<size_t>(client_id)];
}

Status RootCoordinator::AggregateFedGta(
    int round, const std::vector<int>& survivors,
    const std::vector<LocalResult>& results) {
  MetricsRegistry& metrics = GlobalMetrics();
  const size_t gp = survivors.size();

  // Which shards staged survivors this round.
  std::vector<char> active(aggs_.size(), 0);
  for (int id : survivors) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].clients.contains(id)) active[a] = 1;
    }
  }

  // Phase 1: broadcast the survivor frame; every shard runs core Eq. 6
  // for its own rows and reports the canonical sets that cross its
  // boundary (sets wholly inside it are aggregated there).
  net::RoutedMsg set_build;
  {
    SetBuildBody frame;
    frame.survivors.assign(survivors.begin(), survivors.end());
    frame.moments.reserve(gp);
    for (const LocalResult& r : results) {
      frame.moments.push_back(r.metrics.moments);
    }
    set_build = MakeEnvelope(net::EnvelopeKind::kSetBuild, round, frame);
  }
  {
    std::vector<Status> status = ParallelExchange(active, [&](size_t a) {
      net::RoutedMsg response;
      FEDGTA_RETURN_IF_ERROR(CallAggregator(a, set_build, &response));
      return UnpackEnvelope(response, net::EnvelopeKind::kSetReport,
                            &round_shards_[a].report);
    });
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (active[a] && !status[a].ok()) {
        return InternalError("aggregator " + std::to_string(a) +
                             " failed mid-round during set building: " +
                             std::string(status[a].message()));
      }
    }
  }
  // Every ordered survivor pair is judged exactly once across the shards,
  // so the single-server Eq. 6 pair count needs no report.
  if (gp > 1) {
    metrics.GetCounter("fedgta.similarity.pairs_exact")
        .Increment(static_cast<int64_t>(gp * (gp - 1)));
  }

  // Phase 2: dedup the cross-shard canonical sets globally and compute
  // their Eq. 7 weight sums (double-accumulated in canonical order — the
  // single-server group loop's arithmetic).
  struct Group {
    std::vector<int32_t> canonical;
    double weight_sum = 0.0;
    std::vector<float> acc;
    /// (shard, index into that shard's SetReport order).
    std::vector<std::pair<size_t, int64_t>> reporters;
  };
  std::vector<Group> groups;
  int64_t local_unique = 0;
  {
    std::map<std::vector<int32_t>, size_t> index;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (!active[a]) continue;
      local_unique += round_shards_[a].report.local_unique;
      const SetReportBody& report = round_shards_[a].report;
      for (size_t ri = 0; ri < report.sets.size(); ++ri) {
        auto [it, inserted] =
            index.emplace(report.sets[ri], groups.size());
        if (inserted) {
          Group g;
          g.canonical = report.sets[ri];
          groups.push_back(std::move(g));
        }
        groups[it->second].reporters.emplace_back(
            a, static_cast<int64_t>(ri));
      }
    }
    for (Group& g : groups) {
      double weight_sum = 0.0;
      for (int32_t j : g.canonical) {
        if (j < 0 || j >= data_.num_clients()) {
          return InvalidArgumentError("canonical set member out of range");
        }
        weight_sum += MemberWeight(j, confidence_by_id_);
      }
      g.weight_sum = weight_sum;
      g.acc.assign(static_cast<size_t>(param_count_), 0.0f);
    }
  }
  const int64_t unique_sets = local_unique + static_cast<int64_t>(groups.size());
  metrics.GetCounter("fedgta.aggregation.unique_sets").Increment(unique_sets);
  metrics.GetCounter("fedgta.aggregation.dedup_reused")
      .Increment(static_cast<int64_t>(gp) - unique_sets);

  // Phase 3: chained Eq. 7 partials, strictly in ascending shard order —
  // each shard folds its members onto the travelling accumulators, which
  // replays the single-server left-associated float sums bit for bit.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (!active[a]) continue;
    PartialAggregateBody body;
    std::vector<size_t> group_of;
    for (size_t g = 0; g < groups.size(); ++g) {
      bool member_here = false;
      for (int32_t j : groups[g].canonical) {
        if (aggs_[a].clients.contains(j)) {
          member_here = true;
          break;
        }
      }
      if (!member_here) continue;
      PartialSet set;
      set.canonical = groups[g].canonical;
      set.weight_sum = groups[g].weight_sum;
      set.acc = groups[g].acc;
      body.sets.push_back(std::move(set));
      group_of.push_back(g);
    }
    if (body.sets.empty()) continue;
    net::RoutedMsg response;
    Status rpc = CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kPartialAggregate, round, body),
        &response);
    PartialBlockBody block;
    if (rpc.ok()) {
      rpc = UnpackEnvelope(response, net::EnvelopeKind::kPartialBlock, &block);
    }
    if (rpc.ok() && block.accs.size() != group_of.size()) {
      rpc = InvalidArgumentError("partial block count mismatch");
    }
    if (!rpc.ok()) {
      return InternalError("aggregator " + std::to_string(a) +
                           " failed mid-round during the chained Eq. 7 "
                           "partial pass: " +
                           rpc.message());
    }
    for (size_t k = 0; k < group_of.size(); ++k) {
      groups[group_of[k]].acc = std::move(block.accs[k]);
    }
  }

  // Phase 4: deliver the finished vectors back to every reporting shard.
  // A failure here only loses that shard's own personalization (its
  // clients drop from later rounds anyway), so it degrades like a dead
  // worker instead of aborting the run.
  std::vector<GroupDeliverBody> deliver(aggs_.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const auto& [a, ri] : groups[g].reporters) {
      deliver[a].report_index.push_back(ri);
      deliver[a].params.push_back(groups[g].acc);
    }
  }
  ParallelExchange(active, [&](size_t a) {
    if (deliver[a].report_index.empty()) return OkStatus();
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kGroupDeliver, round, deliver[a]),
        &response));
    if (response.kind !=
        static_cast<uint32_t>(net::EnvelopeKind::kGroupAck)) {
      return InvalidArgumentError("unexpected GroupDeliver reply");
    }
    return OkStatus();
  });
  return OkStatus();
}

void RootCoordinator::Train(int round, const std::vector<int>& participants,
                            const std::vector<ClientFate>& fates,
                            const Deliver& deliver) {
  // Partition by shard: ascending participants are shard-major, so a
  // single forward walk deals every shard its contiguous slice.
  round_shards_.assign(aggs_.size(), ShardRoundState());
  {
    size_t cursor = 0;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      while (cursor < participants.size() &&
             aggs_[a].clients.contains(participants[cursor])) {
        round_shards_[a].participants.push_back(participants[cursor]);
        round_shards_[a].fates.push_back(fates[cursor]);
        ++cursor;
      }
    }
  }

  std::vector<char> active(aggs_.size(), 0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    active[a] =
        aggs_[a].alive && !round_shards_[a].participants.empty() ? 1 : 0;
  }
  ParallelExchange(active, [&](size_t a) {
    ShardRoundState& shard = round_shards_[a];
    TrainShardBody body;
    body.participants.assign(shard.participants.begin(),
                             shard.participants.end());
    body.fates.reserve(shard.fates.size());
    for (ClientFate fate : shard.fates) {
      body.fates.push_back(static_cast<uint32_t>(fate));
    }
    if (relay_) {
      body.global_params =
          CopyParams(strategy_->ParamsFor(shard.participants.front()));
    }
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kTrainShard, round, body),
        &response));
    FEDGTA_RETURN_IF_ERROR(UnpackEnvelope(
        response, net::EnvelopeKind::kTrainShardDone, &shard.done));
    const size_t expect = shard.participants.size();
    if (shard.done.rpc_ok.size() != expect ||
        shard.done.seconds.size() != expect ||
        shard.done.losses.size() != expect ||
        shard.done.num_samples.size() != expect ||
        shard.done.confidences.size() != expect ||
        shard.done.moments.size() != (relay_ ? 0 : expect) ||
        (relay_ && shard.done.weights.size() != expect)) {
      aggs_[a].alive = false;
      aggs_[a].health->healthy.store(false, std::memory_order_relaxed);
      return InvalidArgumentError("train reply misaligned");
    }
    shard.trained = true;
    return OkStatus();
  });

  // Reports in shard-major (= participant) order. A dead aggregator maps
  // every shard participant onto the transport-failure dropout semantics.
  // The FedGTA plane adds the moments; relay mode adds the weights.
  for (ShardRoundState& shard : round_shards_) {
    for (size_t i = 0; i < shard.participants.size(); ++i) {
      ClientReport report;
      report.round = round;
      report.fate = shard.fates[i];
      report.delivered = shard.trained && shard.done.rpc_ok[i];
      report.result.client_id = shard.participants[i];
      if (report.delivered) {
        report.seconds = shard.done.seconds[i];
        report.result.loss = shard.done.losses[i];
        report.result.num_samples = shard.done.num_samples[i];
        report.result.metrics.confidence = shard.done.confidences[i];
        if (relay_) {
          report.result.params = std::move(shard.done.weights[i]);
        } else {
          report.result.metrics.moments = std::move(shard.done.moments[i]);
        }
      }
      deliver(std::move(report));
    }
  }
}

Status RootCoordinator::Aggregate(int round,
                                  const std::vector<int>& survivors,
                                  const std::vector<LocalResult>& results) {
  if (relay_) {
    strategy_->Aggregate(survivors, results);
    return OkStatus();
  }
  for (const LocalResult& r : results) {
    confidence_by_id_[static_cast<size_t>(r.client_id)] = r.metrics.confidence;
  }
  return AggregateFedGta(round, survivors, results);
}

Strategy::CommunicationStats RootCoordinator::Communication(
    const std::vector<LocalResult>& results) {
  if (relay_) return strategy_->RoundCommunication(results);
  // Shard-local sums of the base RoundCommunication formula — integer
  // adds, so the shard-order total equals the single-server total.
  Strategy::CommunicationStats comm;
  for (const ShardRoundState& shard : round_shards_) {
    if (!shard.trained) continue;
    comm.upload_floats += shard.done.upload_floats;
    comm.download_floats += shard.done.download_floats;
  }
  return comm;
}

Status RootCoordinator::Evaluate(int round, std::vector<double>* test_acc,
                                 std::vector<double>* val_acc,
                                 std::vector<char>* evaluated) {
  EvalShardBody request;
  if (relay_) request.global_params = CopyParams(strategy_->ParamsFor(0));
  std::vector<char> active(aggs_.size(), 0);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    active[a] = aggs_[a].alive ? 1 : 0;
  }
  std::mutex merge_mutex;
  // Eval failures degrade like the flat plane's dead workers: the shard's
  // clients stay unevaluated and drop out of the weighted reduction.
  ParallelExchange(active, [&](size_t a) {
    net::RoutedMsg response;
    FEDGTA_RETURN_IF_ERROR(CallAggregator(
        a, MakeEnvelope(net::EnvelopeKind::kEvalShard, round, request),
        &response));
    EvalShardDoneBody done;
    FEDGTA_RETURN_IF_ERROR(
        UnpackEnvelope(response, net::EnvelopeKind::kEvalShardDone, &done));
    if (done.test_accuracy.size() != done.ids.size() ||
        done.val_accuracy.size() != done.ids.size() ||
        done.evaluated.size() != done.ids.size()) {
      return InvalidArgumentError("eval reply misaligned");
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    for (size_t k = 0; k < done.ids.size(); ++k) {
      const int id = done.ids[k];
      if (!aggs_[a].clients.contains(id)) {
        return InvalidArgumentError("eval reply for a foreign client");
      }
      if (!done.evaluated[k]) continue;
      (*test_acc)[static_cast<size_t>(id)] = done.test_accuracy[k];
      (*val_acc)[static_cast<size_t>(id)] = done.val_accuracy[k];
      (*evaluated)[static_cast<size_t>(id)] = 1;
    }
    return OkStatus();
  });
  return OkStatus();
}

void RootCoordinator::Finish() {
  // Best-effort goodbye down the tree: each aggregator shuts its own
  // worker fleet before acking.
  for (AggregatorLink& link : aggs_) {
    if (!link.alive || !link.channel.ok()) continue;
    net::ShutdownMsg bye;
    if (!net::SendMessage(link.channel.socket(), bye).ok()) continue;
    net::ShutdownAckMsg ack;
    (void)net::ExpectMessage(link.channel.socket(), &ack);
  }
}

Result<SimulationResult> RootCoordinator::Run() {
  if (!server_.valid()) {
    return FailedPreconditionError("call Listen() before Run()");
  }
  trace_id_ = NewTraceId();
  // First thread this process creates — anyone forking must have done so
  // before Run() (the hierarchy tests rely on this ordering).
  if (status_.bound()) {
    status_.Start([this](const std::string& cmd) { return RenderStatus(cmd); });
  }
  WallTimer setup_timer;
  FEDGTA_RETURN_IF_ERROR(Handshake());
  const double setup_seconds = setup_timer.Seconds();

  SimulationConfig sim = config_.sim;
  sim.seed = config_.seed;
  RoundEngine engine(sim, data_.clients, this);
  engine.SetTraceId(trace_id_);
  Result<SimulationResult> result = engine.Run();
  if (result.ok()) result->setup_seconds = setup_seconds;
  return result;
}

std::string RootCoordinator::RenderStatus(const std::string& command) const {
  if (command == "metrics.json") return GlobalMetrics().ToJson();
  if (command == "metrics") return GlobalMetrics().ToText();
  if (command == "timeline") return GlobalTimeline().ToJsonLines();

  const int64_t now_us = internal_obs::TraceNowMicros();
  std::string out = "fedgta root status\n";
  out += StrFormat("round: %d/%d\n", GlobalTimeline().current_round(),
                   config_.sim.rounds);
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (agg_status_.empty()) {
      out += "aggregators: handshake in progress\n";
    } else {
      out += StrFormat("aggregators: %zu\n", agg_status_.size());
      for (size_t a = 0; a < agg_status_.size(); ++a) {
        const AggregatorStatusEntry& entry = agg_status_[a];
        const int64_t last =
            entry.health->last_response_us.load(std::memory_order_relaxed);
        const int64_t lag_ms = last > 0 ? (now_us - last) / 1000 : -1;
        // The live probe is what actually notices a mid-tier process that
        // died between rounds: its status endpoint stops answering even
        // though the last recorded exchange looked healthy.
        const char* probe = "disabled";
        if (entry.status_port >= 0) {
          probe = net::QueryStatusLine("127.0.0.1", entry.status_port,
                                       "status", /*timeout_ms=*/500)
                          .ok()
                      ? "ok"
                      : "FAILED";
        }
        out += StrFormat(
            "  aggregator %zu: %s shard=[%d,%d) clients=%d workers=%d "
            "responses=%lld lag_ms=%lld probe=%s\n",
            a,
            entry.health->healthy.load(std::memory_order_relaxed) ? "healthy"
                                                                  : "DOWN",
            entry.clients.begin, entry.clients.end, entry.clients.size(),
            entry.workers.size(),
            static_cast<long long>(
                entry.health->responses.load(std::memory_order_relaxed)),
            static_cast<long long>(lag_ms), probe);
      }
    }
  }
  out += RenderRoundLatencies();
  out += RenderSimilarityCounters();
  return out;
}

}  // namespace fed
}  // namespace fedgta
