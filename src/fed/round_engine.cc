#include "fed/round_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace fedgta {

RoundEngine::RoundEngine(const SimulationConfig& config,
                         const std::vector<ClientData>& shards,
                         ClientPlane* plane)
    : config_(config), shards_(shards), plane_(plane), plan_(config.failure) {
  FEDGTA_CHECK(plane_ != nullptr);
}

void RoundEngine::Resume(int completed_rounds,
                         const std::string& sampling_rng_state,
                         double best_val, fed::RunResult partial) {
  start_round_ = completed_rounds;
  rng_state_ = sampling_rng_state;
  best_val_ = best_val;
  partial_ = std::move(partial);
  partial_.resumed_from_round = completed_rounds;
}

Result<fed::RunResult> RoundEngine::Run() {
  fed::RunResult result = partial_;
  const Status status = RunRounds(&result);
  plane_->Finish();
  FEDGTA_RETURN_IF_ERROR(status);
  result.metrics_json = GlobalMetrics().ToJson();
  return result;
}

void RoundEngine::Admit(ClientReport report) {
  const int round = report.round;
  const int id = report.result.client_id;
  Timeline& timeline = GlobalTimeline();
  if (report.fate == ClientFate::kDropout) {
    timeline.ClientFate(round, id, std::string(ClientFateName(report.fate)),
                        0.0);
    queue_->MarkAccounted(round);
    return;
  }
  if (!report.delivered) {
    rpc_failures_.fetch_add(1, std::memory_order_relaxed);
    timeline.ClientFate(round, id, "rpc_failed", 0.0);
    queue_->MarkAccounted(round);
    return;
  }
  timeline.ClientFate(round, id, std::string(ClientFateName(report.fate)),
                      report.seconds);
  switch (report.fate) {
    case ClientFate::kHealthy:
      queue_->Push({round, round, std::move(report.result)});
      break;
    case ClientFate::kStraggler:
      // Injected stragglers carry a *virtual* arrival round (StragglerDelay
      // is pure), so admission decisions stay plan-computable; on-time
      // updates become deliverable at once and any staleness they accrue
      // is real drain-timing lateness.
      queue_->Push({round, round + plan_.StragglerDelay(round, id),
                    std::move(report.result)});
      break;
    case ClientFate::kCrash:
      // Trained (truncated), nothing uploaded — same as sync.
      queue_->MarkAccounted(round);
      break;
    case ClientFate::kDropout:
      break;  // handled above
  }
}

Status RoundEngine::RunRounds(fed::RunResult* result) {
  Rng rng(config_.seed ^ 0x517u);
  if (!rng_state_.empty()) FEDGTA_CHECK(rng.LoadState(rng_state_).ok());
  double best_val = best_val_;

  const bool failures = config_.failure.enabled();
  const int n_clients = static_cast<int>(shards_.size());
  const int per_round = std::max(
      1, static_cast<int>(std::lround(config_.participation * n_clients)));
  const int tau = config_.staleness_tau;
  if (config_.async) queue_ = std::make_unique<AsyncUpdateQueue>();

  // Per-round deltas land in the registry so a metrics dump decomposes the
  // run without post-processing the curve (see DESIGN.md "Observability").
  MetricsRegistry& metrics = GlobalMetrics();
  Histogram& round_client_seconds =
      metrics.GetHistogram("round.client_seconds");
  Histogram& round_server_seconds =
      metrics.GetHistogram("round.server_seconds");
  Counter& rounds_completed = metrics.GetCounter("rounds.completed");
  Counter& upload_floats = metrics.GetCounter("comm.upload_floats");
  Counter& download_floats = metrics.GetCounter("comm.download_floats");
  Counter& dropped_counter = metrics.GetCounter("fed.round.dropped_clients");
  Counter& straggler_counter = metrics.GetCounter("fed.round.stragglers");
  Counter& crashed_counter = metrics.GetCounter("fed.round.crashed_clients");
  Histogram& round_seconds = metrics.GetHistogram(kRoundSecondsMetric);
  // In-process runs move no bytes over the wire (and register no net.*).
  const bool wired = trace_id_ != 0;
  Counter* bytes_sent = wired ? &metrics.GetCounter("net.bytes_sent") : nullptr;
  Counter* bytes_recv = wired ? &metrics.GetCounter("net.bytes_recv") : nullptr;
  Timeline& timeline = GlobalTimeline();
  int64_t rpc_failures_seen = 0;

  for (int round = start_round_ + 1; round <= config_.rounds; ++round) {
    // The round's distributed identity: every RPC this round issues (from
    // this thread or a dispatch thread that re-installs the context)
    // carries {trace_id, round span, round} in its envelope.
    TraceContext round_ctx;
    round_ctx.trace_id = trace_id_;
    round_ctx.round = round;
    std::optional<ScopedTraceContext> scoped_round;
    if (wired) scoped_round.emplace(round_ctx);
    FEDGTA_TRACE_SCOPE("round");
    WallTimer round_timer;
    const int64_t bytes_sent0 = wired ? bytes_sent->value() : 0;
    const int64_t bytes_recv0 = wired ? bytes_recv->value() : 0;

    std::vector<int> participants =
        per_round >= n_clients
            ? [n_clients] {
                std::vector<int> all(static_cast<size_t>(n_clients));
                for (int i = 0; i < n_clients; ++i) {
                  all[static_cast<size_t>(i)] = i;
                }
                return all;
              }()
            : rng.SampleWithoutReplacement(n_clients, per_round);
    std::sort(participants.begin(), participants.end());
    const size_t n_part = participants.size();
    timeline.RoundStart(round, static_cast<int64_t>(n_part));

    // FateOf is pure, so every plane (and every worker) sees the same
    // schedule: dropouts are never contacted, which keeps a remote
    // client's RNG streams aligned with the in-process executor's.
    std::vector<ClientFate> fates(n_part, ClientFate::kHealthy);
    if (failures) {
      for (size_t i = 0; i < n_part; ++i) {
        fates[i] = plan_.FateOf(round, participants[i]);
      }
    }

    const bool eval_round =
        round % config_.eval_every == 0 || round == config_.rounds;
    std::vector<int> survivors;
    std::vector<LocalResult> results;
    int64_t dropped = 0;
    int64_t stragglers = 0;
    int64_t crashed = 0;
    double loss_sum = 0.0;
    AsyncUpdateQueue::Drain drain;
    WallTimer client_timer;
    if (config_.async) {
      // Every dispatch is terminally accounted to the queue — Push for
      // updates that exist (healthy, and stragglers: late, not lost),
      // MarkAccounted for dropouts, crashes and transport failures — so
      // the wait rule below always terminates.
      queue_->MarkDispatched(round, static_cast<int>(n_part));
      for (ClientFate fate : fates) {
        if (fate == ClientFate::kDropout) ++dropped;
        if (fate == ClientFate::kStraggler) ++stragglers;
        if (fate == ClientFate::kCrash) ++crashed;
      }
      plane_->Train(round, participants, fates,
                    [this](ClientReport report) { Admit(std::move(report)); });
      // Bounded-staleness wait rule: aggregate once everything dispatched
      // at rounds <= t - tau is accounted for. Eval rounds (and the final
      // round) wait for the full current round too, so a plane's dispatch
      // threads are parked while evaluation reuses its connections.
      queue_->WaitDispatchedThrough(eval_round ? round : round - tau);
      drain = queue_->DrainRound(round, tau, round == config_.rounds);
      survivors.reserve(drain.admitted.size());
      results.reserve(drain.admitted.size());
      for (AsyncUpdate& u : drain.admitted) {
        ApplyStalenessDiscount(round - u.dispatch_round,
                               config_.staleness_decay, &u.result);
        survivors.push_back(u.result.client_id);
        loss_sum += u.result.loss;
        results.push_back(std::move(u.result));
      }
      // Transport failures observed since the last round land here (with
      // tau = 0 the wait above is a full barrier, so attribution is exact).
      const int64_t rpc_failures_now =
          rpc_failures_.load(std::memory_order_relaxed);
      dropped += rpc_failures_now - rpc_failures_seen;
      rpc_failures_seen = rpc_failures_now;
    } else {
      std::vector<ClientReport> reports(n_part);
      const auto slot = [&participants](int id) {
        return static_cast<size_t>(
            std::lower_bound(participants.begin(), participants.end(), id) -
            participants.begin());
      };
      plane_->Train(round, participants, fates, [&](ClientReport report) {
        reports[slot(report.result.client_id)] = std::move(report);
      });
      // Failed participants never report: the server aggregates over the
      // survivors only, which renormalizes the FedGTA Eq. 7 weights (and
      // every other strategy's data-size weights) within each aggregation
      // set. A transport failure maps onto the dropout semantics.
      survivors.reserve(n_part);
      results.reserve(n_part);
      for (size_t i = 0; i < n_part; ++i) {
        ClientReport& report = reports[i];
        const int id = participants[i];
        const std::string fate_name(ClientFateName(fates[i]));
        if (fates[i] == ClientFate::kDropout) {
          ++dropped;
          timeline.ClientFate(round, id, fate_name, 0.0);
          continue;
        }
        if (!report.delivered) {
          ++dropped;
          timeline.ClientFate(round, id, "rpc_failed", 0.0);
          continue;
        }
        timeline.ClientFate(round, id, fate_name, report.seconds);
        switch (fates[i]) {
          case ClientFate::kHealthy:
            survivors.push_back(id);
            loss_sum += report.result.loss;
            results.push_back(std::move(report.result));
            break;
          case ClientFate::kStraggler:
            ++stragglers;
            break;
          case ClientFate::kCrash:
            ++crashed;
            break;
          case ClientFate::kDropout:
            break;  // handled above
        }
      }
    }
    const double client_seconds = client_timer.Seconds();

    // Server aggregation over the survivors; a round where every
    // participant failed leaves the server state as-is.
    WallTimer server_timer;
    {
      FEDGTA_TRACE_SCOPE("server_step");
      if (!survivors.empty()) {
        FEDGTA_RETURN_IF_ERROR(plane_->Aggregate(round, survivors, results));
      }
    }
    const double server_seconds = server_timer.Seconds();

    result->total_client_seconds += client_seconds;
    result->total_server_seconds += server_seconds;
    const Strategy::CommunicationStats comm = plane_->Communication(results);
    result->total_upload_floats += comm.upload_floats;
    result->total_download_floats += comm.download_floats;
    result->total_dropped_clients += dropped;
    result->total_straggler_clients += stragglers;
    result->total_crashed_clients += crashed;
    result->total_admitted_updates +=
        static_cast<int64_t>(drain.admitted.size());
    result->total_stale_dropped_updates += drain.stale_dropped;

    round_client_seconds.Record(client_seconds);
    round_server_seconds.Record(server_seconds);
    rounds_completed.Increment();
    upload_floats.Increment(comm.upload_floats);
    download_floats.Increment(comm.download_floats);
    if (dropped > 0) dropped_counter.Increment(dropped);
    if (stragglers > 0) straggler_counter.Increment(stragglers);
    if (crashed > 0) crashed_counter.Increment(crashed);
    round_seconds.Record(round_timer.Seconds());
    if (config_.async) {
      timeline.AsyncAdmission(round,
                              static_cast<int64_t>(drain.admitted.size()),
                              drain.stale_dropped,
                              static_cast<int64_t>(queue_->depth()));
    }
    timeline.RoundEnd(round, client_seconds, server_seconds,
                      wired ? bytes_sent->value() - bytes_sent0 : 0,
                      wired ? bytes_recv->value() - bytes_recv0 : 0, dropped,
                      stragglers, crashed);

    if (eval_round) {
      RoundStats stats;
      stats.round = round;
      stats.train_loss = survivors.empty()
                             ? 0.0
                             : loss_sum / static_cast<double>(survivors.size());
      stats.client_seconds = result->total_client_seconds;
      stats.server_seconds = result->total_server_seconds;
      stats.upload_floats = result->total_upload_floats;
      stats.download_floats = result->total_download_floats;
      stats.dropped_clients = result->total_dropped_clients;
      stats.straggler_clients = result->total_straggler_clients;
      stats.crashed_clients = result->total_crashed_clients;
      FEDGTA_RETURN_IF_ERROR(
          Evaluate(round, &stats.test_accuracy, &stats.val_accuracy));
      if (stats.val_accuracy > best_val) {
        best_val = stats.val_accuracy;
        result->best_test_accuracy = stats.test_accuracy;
      }
      result->final_test_accuracy = stats.test_accuracy;
      result->curve.push_back(stats);
    }

    const int every = std::max(1, config_.checkpoint_every);
    const bool halting =
        config_.halt_after_round > 0 && round >= config_.halt_after_round;
    if (checkpoint_ &&
        (round % every == 0 || round == config_.rounds || halting)) {
      FEDGTA_RETURN_IF_ERROR(checkpoint_(round, rng, best_val, *result));
    }
    if (halting) break;
  }
  return OkStatus();
}

Status RoundEngine::Evaluate(int round, double* test_accuracy,
                             double* val_accuracy) {
  const size_t n = shards_.size();
  std::vector<double> test_acc(n, 0.0);
  std::vector<double> val_acc(n, 0.0);
  std::vector<char> evaluated(n, 0);
  FEDGTA_RETURN_IF_ERROR(
      plane_->Evaluate(round, &test_acc, &val_acc, &evaluated));

  // Weighted reduction in client order, whichever plane produced the
  // per-client accuracies — the arithmetic stream every plane shares.
  double test_correct = 0.0;
  double val_correct = 0.0;
  int64_t test_total = 0;
  int64_t val_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!evaluated[i]) continue;
    const int64_t n_test = static_cast<int64_t>(shards_[i].test_idx.size());
    const int64_t n_val = static_cast<int64_t>(shards_[i].val_idx.size());
    if (n_test > 0) {
      test_correct += test_acc[i] * static_cast<double>(n_test);
      test_total += n_test;
    }
    if (n_val > 0) {
      val_correct += val_acc[i] * static_cast<double>(n_val);
      val_total += n_val;
    }
  }
  *test_accuracy =
      test_total > 0 ? test_correct / static_cast<double>(test_total) : 0.0;
  *val_accuracy =
      val_total > 0 ? val_correct / static_cast<double>(val_total) : 0.0;
  return OkStatus();
}

std::string RenderRoundLatencies() {
  std::string out = "latencies:\n";
  for (const char* name :
       {kRoundSecondsMetric, "net.rpc.seconds", "round.client_seconds",
        "round.server_seconds", "fleet.phase.remote_train.seconds"}) {
    const Histogram* h = GlobalMetrics().FindHistogram(name);
    if (h == nullptr) continue;
    const Histogram::Snapshot s = h->snapshot();
    if (s.count == 0) continue;
    out += StrFormat("  %s: count=%lld p50=%.6f p99=%.6f\n", name,
                     static_cast<long long>(s.count), s.Quantile(0.5),
                     s.Quantile(0.99));
  }
  return out;
}

std::string RenderSimilarityCounters() {
  std::string plane;
  for (const char* name :
       {"fedgta.similarity.pairs_exact", "fedgta.similarity.pairs_pruned",
        "fedgta.aggregation.unique_sets", "fedgta.aggregation.dedup_reused"}) {
    const Counter* c = GlobalMetrics().FindCounter(name);
    if (c == nullptr) continue;
    plane += StrFormat("  %s: %lld\n", name,
                       static_cast<long long>(c->value()));
  }
  return plane.empty() ? plane : "similarity:\n" + plane;
}

}  // namespace fedgta
