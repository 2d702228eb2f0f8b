#include "fed/worker_fleet.h"

#include <thread>

#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {

Status WorkerFleet::Accept(net::ServerSocket& server, int num_clients,
                           const std::vector<std::vector<int>>& ownership,
                           const WorkerFleetOptions& options) {
  const int num_workers = static_cast<int>(ownership.size());
  worker_index_base_ = options.worker_index_base;
  links_.clear();
  links_.resize(static_cast<size_t>(num_workers));
  owner_.assign(static_cast<size_t>(num_clients), -1);
  for (int w = 0; w < num_workers; ++w) {
    links_[static_cast<size_t>(w)].client_ids = ownership[static_cast<size_t>(w)];
    for (int id : ownership[static_cast<size_t>(w)]) {
      owner_[static_cast<size_t>(id)] = w;
    }
  }

  const net::compress::Codec* codec = nullptr;
  if (options.compress != "off") {
    codec = net::compress::FindCodec(options.compress);
    FEDGTA_CHECK(codec != nullptr)
        << "caller admitted unknown codec " << options.compress;
  }
  param_count_ = -1;
  init_params_.clear();
  for (int w = 0; w < num_workers; ++w) {
    Result<net::Socket> accepted = server.Accept(options.accept_timeout_ms);
    FEDGTA_RETURN_IF_ERROR(accepted.status());
    net::RpcChannel channel(std::move(*accepted), options.rpc);
    net::HelloMsg hello;
    FEDGTA_RETURN_IF_ERROR(
        net::ReceiveHello(channel.socket(), net::NodeRole::kWorker, &hello));
    const int64_t hello_recv_us = internal_obs::TraceNowMicros();
    net::AssignConfigMsg assign;
    assign.config = options.wire;
    WorkerLink& link = links_[static_cast<size_t>(w)];
    assign.client_ids.assign(link.client_ids.begin(), link.client_ids.end());
    // Clock sync (NTP midpoint): echo when the Hello landed and when this
    // reply leaves, both on the server trace clock; the worker combines
    // them with its own send/recv times to shift its trace timebase.
    assign.hello_recv_us = hello_recv_us;
    assign.worker_index = options.worker_index_base + w;
    // The server's codec binds the worker; "off" builds no Link, so those
    // connections ship uncompressed bytes.
    if (codec != nullptr) {
      assign.codec_id = static_cast<uint32_t>(codec->id());
      link.compress =
          std::make_unique<net::compress::Link>(codec, options.compress_topk);
    }
    assign.compress_topk = options.compress_topk;
    assign.assign_send_us = internal_obs::TraceNowMicros();
    net::ConfigAckMsg ack;
    FEDGTA_RETURN_IF_ERROR(channel.Call(assign, &ack));
    GlobalTimeline().Worker(options.worker_index_base + w, "connected");
    if (param_count_ < 0) param_count_ = ack.param_count;
    if (ack.param_count != param_count_) {
      return FailedPreconditionError(
          "workers disagree on the model parameter count");
    }
    if (!ack.init_params.empty()) init_params_ = std::move(ack.init_params);
    link.channel = std::move(channel);
  }
  if (!init_params_.empty() &&
      static_cast<int64_t>(init_params_.size()) != param_count_) {
    return FailedPreconditionError(
        "init parameter vector length disagrees with the reported count");
  }
  return OkStatus();
}

void WorkerFleet::TrainRound(int round, const std::vector<int>& participants,
                             const std::vector<ClientFate>& fates,
                             const WeightsFn& weights_for,
                             FleetMetricsMerger* merger,
                             std::vector<net::TrainResponseMsg>* responses,
                             std::vector<Status>* rpc_status) {
  const size_t n_part = participants.size();
  responses->assign(n_part, net::TrainResponseMsg());
  rpc_status->assign(n_part, OkStatus());
  const TraceContext dispatch_ctx = CurrentTraceContext();
  // One dispatch thread per worker: requests on one connection are
  // strictly sequential (request/response protocol); workers run
  // concurrently. Responses land in participant-index-aligned slots.
  std::vector<std::thread> threads;
  threads.reserve(links_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    threads.emplace_back([&, w] {
      // Re-install the round context (thread-locals don't inherit), so
      // every TrainRequest envelope parents to the round span.
      ScopedTraceContext adopt(dispatch_ctx);
      WorkerLink& link = links_[w];
      for (size_t i = 0; i < n_part; ++i) {
        const int id = participants[i];
        if (owner_[static_cast<size_t>(id)] != static_cast<int>(w)) {
          continue;
        }
        if (fates[i] == ClientFate::kDropout) continue;
        if (!link.channel.ok()) {
          link.health->healthy.store(false, std::memory_order_relaxed);
          (*rpc_status)[i] = InternalError("worker connection is down");
          continue;
        }
        net::TrainRequestMsg req;
        req.round = round;
        req.client_id = id;
        req.weights = weights_for(id);
        (*rpc_status)[i] =
            link.channel.Call(req, &(*responses)[i], link.compress.get());
        if (!(*rpc_status)[i].ok()) {
          link.health->healthy.store(false, std::memory_order_relaxed);
          continue;
        }
        link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                            std::memory_order_relaxed);
        link.health->responses.fetch_add(1, std::memory_order_relaxed);
        merger->Apply(worker_index_base_ + static_cast<int>(w),
                      (*responses)[i].metrics);
        if ((*responses)[i].client_id != id) {
          (*rpc_status)[i] =
              InternalError("response for a different client id");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void WorkerFleet::EvalClients(const WeightsFn& weights_for,
                              FleetMetricsMerger* merger,
                              std::vector<double>* test_acc,
                              std::vector<double>* val_acc,
                              std::vector<char>* evaluated) {
  // Thread-locals don't cross std::thread creation: capture the round's
  // context here and re-install it in each eval thread so the requests'
  // envelopes parent to the round span.
  const TraceContext eval_ctx = CurrentTraceContext();
  std::vector<std::thread> threads;
  threads.reserve(links_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    threads.emplace_back([this, w, eval_ctx, &weights_for, merger, test_acc,
                          val_acc, evaluated] {
      ScopedTraceContext adopt(eval_ctx);
      WorkerLink& link = links_[w];
      for (int id : link.client_ids) {
        if (!link.channel.ok()) {
          link.health->healthy.store(false, std::memory_order_relaxed);
          return;
        }
        net::EvalRequestMsg req;
        req.client_id = id;
        req.weights = weights_for(id);
        net::EvalResponseMsg resp;
        if (!link.channel.Call(req, &resp, link.compress.get()).ok()) {
          link.health->healthy.store(false, std::memory_order_relaxed);
          continue;
        }
        link.health->last_response_us.store(internal_obs::TraceNowMicros(),
                                            std::memory_order_relaxed);
        link.health->responses.fetch_add(1, std::memory_order_relaxed);
        merger->Apply(worker_index_base_ + static_cast<int>(w), resp.metrics);
        if (resp.client_id != id) continue;
        (*test_acc)[static_cast<size_t>(id)] = resp.test_accuracy;
        (*val_acc)[static_cast<size_t>(id)] = resp.val_accuracy;
        (*evaluated)[static_cast<size_t>(id)] = 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void WorkerFleet::Shutdown() {
  for (WorkerLink& link : links_) {
    if (!link.channel.ok()) continue;
    net::ShutdownMsg shutdown;
    if (!net::SendMessage(link.channel.socket(), shutdown).ok()) continue;
    net::ShutdownAckMsg ack;
    (void)net::ExpectMessage(link.channel.socket(), &ack);
  }
}

std::vector<WorkerStatusEntry> WorkerFleet::StatusSnapshot() const {
  std::vector<WorkerStatusEntry> entries;
  entries.reserve(links_.size());
  for (const WorkerLink& link : links_) {
    entries.push_back({link.health, static_cast<int>(link.client_ids.size())});
  }
  return entries;
}

}  // namespace fedgta
