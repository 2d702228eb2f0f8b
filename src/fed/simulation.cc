#include "fed/simulation.h"

#include <filesystem>

#include "common/serialize.h"
#include "common/timer.h"
#include "fed/executor.h"
#include "fed/round_engine.h"

namespace fedgta {
namespace {

// Partial-run snapshot: the accuracy curve plus every cumulative total that
// Run() would have accumulated so far. setup_seconds and metrics_json are
// per-process and deliberately not persisted.
void SavePartialResult(const SimulationResult& r, serialize::Writer* w) {
  w->WriteU32(static_cast<uint32_t>(r.curve.size()));
  for (const RoundStats& s : r.curve) {
    w->WriteI32(s.round);
    w->WriteDouble(s.test_accuracy);
    w->WriteDouble(s.val_accuracy);
    w->WriteDouble(s.train_loss);
    w->WriteDouble(s.client_seconds);
    w->WriteDouble(s.server_seconds);
    w->WriteI64(s.upload_floats);
    w->WriteI64(s.download_floats);
    w->WriteI64(s.dropped_clients);
    w->WriteI64(s.straggler_clients);
    w->WriteI64(s.crashed_clients);
  }
  w->WriteDouble(r.best_test_accuracy);
  w->WriteDouble(r.final_test_accuracy);
  w->WriteDouble(r.total_client_seconds);
  w->WriteDouble(r.total_server_seconds);
  w->WriteI64(r.total_upload_floats);
  w->WriteI64(r.total_download_floats);
  w->WriteI64(r.total_dropped_clients);
  w->WriteI64(r.total_straggler_clients);
  w->WriteI64(r.total_crashed_clients);
}

Status LoadPartialResult(serialize::Reader* reader, SimulationResult* r) {
  uint32_t n = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&n));
  r->curve.clear();
  r->curve.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RoundStats s;
    FEDGTA_RETURN_IF_ERROR(reader->ReadI32(&s.round));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.test_accuracy));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.val_accuracy));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.train_loss));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.client_seconds));
    FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&s.server_seconds));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.upload_floats));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.download_floats));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.dropped_clients));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.straggler_clients));
    FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&s.crashed_clients));
    r->curve.push_back(s);
  }
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->best_test_accuracy));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->final_test_accuracy));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->total_client_seconds));
  FEDGTA_RETURN_IF_ERROR(reader->ReadDouble(&r->total_server_seconds));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_upload_floats));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_download_floats));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_dropped_clients));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_straggler_clients));
  FEDGTA_RETURN_IF_ERROR(reader->ReadI64(&r->total_crashed_clients));
  return OkStatus();
}


/// The in-process client plane: participants train concurrently on the
/// shared pool (RoundExecutor), reduced in participant order so a round is
/// bit-identical to a serial execution; FedGL hooks and its pseudo-label
/// refresh stay here.
class InProcessPlane : public ClientPlane {
 public:
  InProcessPlane(Strategy* strategy, std::vector<Client>* clients,
                 FedGlCoordinator* fedgl, int epochs)
      : strategy_(strategy),
        clients_(clients),
        fedgl_(fedgl),
        epochs_(epochs) {}

  void Train(int round, const std::vector<int>& participants,
             const std::vector<ClientFate>& fates,
             const Deliver& deliver) override {
    // Hooks are materialized up front — coordinators (FedGL) need not be
    // re-entrant.
    std::vector<TrainHooks> hooks;
    if (fedgl_ != nullptr) {
      hooks.reserve(participants.size());
      for (int id : participants) hooks.push_back(fedgl_->HooksFor(id));
    }
    std::vector<RoundExecutor::ClientExecution> executions =
        RoundExecutor::TrainRound(*strategy_, *clients_, participants, fates,
                                  epochs_, hooks);
    for (size_t i = 0; i < executions.size(); ++i) {
      ClientReport report;
      report.round = round;
      report.fate = fates[i];
      report.result = std::move(executions[i].result);
      deliver(std::move(report));
    }
  }

  Status Aggregate(int /*round*/, const std::vector<int>& survivors,
                   const std::vector<LocalResult>& results) override {
    strategy_->Aggregate(survivors, results);
    if (fedgl_ != nullptr) fedgl_->UpdatePseudoLabels(*clients_, survivors);
    return OkStatus();
  }

  Strategy::CommunicationStats Communication(
      const std::vector<LocalResult>& results) override {
    return strategy_->RoundCommunication(results);
  }

  Status Evaluate(int /*round*/, std::vector<double>* test_acc,
                  std::vector<double>* val_acc,
                  std::vector<char>* evaluated) override {
    // Per-client accuracies land concurrently in index-aligned slots; the
    // engine reduces them in client order.
    RoundExecutor::ForEachClient(
        static_cast<int64_t>(clients_->size()), [&](int64_t i) {
          const size_t c = static_cast<size_t>(i);
          Client& client = (*clients_)[c];
          client.SetParams(strategy_->ParamsFor(client.id()));
          if (!client.data().test_idx.empty()) {
            (*test_acc)[c] = client.TestAccuracy();
          }
          if (!client.data().val_idx.empty()) {
            (*val_acc)[c] = client.ValAccuracy();
          }
          (*evaluated)[c] = 1;
        });
    return OkStatus();
  }

 private:
  Strategy* strategy_;
  std::vector<Client>* clients_;
  FedGlCoordinator* fedgl_;
  int epochs_;
};

}  // namespace

Simulation::Simulation(const FederatedDataset* data,
                       const ModelConfig& model_config,
                       const OptimizerConfig& opt_config,
                       std::unique_ptr<Strategy> strategy,
                       const SimulationConfig& config)
    : data_(data), config_(config), strategy_(std::move(strategy)) {
  FEDGTA_CHECK(data_ != nullptr);
  FEDGTA_CHECK(strategy_ != nullptr);
  FEDGTA_CHECK_GE(config.participation, 0.0);
  FEDGTA_CHECK_LE(config.participation, 1.0);

  WallTimer setup_timer;
  Rng rng(config.seed);
  const std::vector<ClientData>* shards = &data_->clients;
  if (config.fgl == FglModel::kFedSage) {
    Rng sage_rng = rng.Fork(0x5a63);
    augmented_ = FedSageAugment(data_->clients, config.fedsage, sage_rng);
    shards = &augmented_;
  }

  clients_.reserve(shards->size());
  for (const ClientData& shard : *shards) {
    clients_.emplace_back(&shard, model_config, opt_config, config.seed);
    clients_.back().SetBatchSize(config.batch_size);
  }

  if (config.fgl == FglModel::kFedGl) {
    fedgl_ = std::make_unique<FedGlCoordinator>(data_, config.fedgl);
  }

  // Common initialization: client 0's fresh weights become round-0 global.
  std::vector<int64_t> train_sizes;
  train_sizes.reserve(clients_.size());
  for (Client& client : clients_) train_sizes.push_back(client.num_train());
  strategy_->Initialize(static_cast<int>(clients_.size()), train_sizes,
                        clients_.front().GetParams());
  setup_seconds_ = setup_timer.Seconds();
}

std::string Simulation::CheckpointPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "checkpoint.ckpt").string();
}

Status Simulation::SaveCheckpoint(const std::string& path, int completed_rounds,
                                  const Rng& sampling_rng, double best_val,
                                  const SimulationResult& partial) {
  serialize::Writer writer;
  writer.WriteU64(config_.seed);
  writer.WriteU32(static_cast<uint32_t>(completed_rounds));
  writer.WriteString(sampling_rng.SaveState());
  writer.WriteDouble(best_val);
  SavePartialResult(partial, &writer);
  strategy_->SaveState(&writer);
  writer.WriteU32(static_cast<uint32_t>(clients_.size()));
  for (Client& client : clients_) client.SaveState(&writer);
  writer.WriteBool(fedgl_ != nullptr);
  if (fedgl_ != nullptr) fedgl_->SaveState(&writer);
  return writer.WriteToFile(path);
}

Status Simulation::LoadCheckpoint(const std::string& path) {
  Result<serialize::Reader> reader_or = serialize::Reader::FromFile(path);
  FEDGTA_RETURN_IF_ERROR(reader_or.status());
  serialize::Reader& reader = *reader_or;

  uint64_t seed = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU64(&seed));
  if (seed != config_.seed) {
    return FailedPreconditionError(
        "checkpoint was written by a run with a different seed");
  }
  uint32_t completed = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU32(&completed));
  if (completed > static_cast<uint32_t>(config_.rounds)) {
    return FailedPreconditionError(
        "checkpoint round exceeds the configured round count");
  }
  std::string rng_state;
  FEDGTA_RETURN_IF_ERROR(reader.ReadString(&rng_state));
  {
    // Validate the stream before committing anything.
    Rng probe(0);
    FEDGTA_RETURN_IF_ERROR(probe.LoadState(rng_state));
  }
  double best_val = -1.0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadDouble(&best_val));
  SimulationResult partial;
  FEDGTA_RETURN_IF_ERROR(LoadPartialResult(&reader, &partial));
  FEDGTA_RETURN_IF_ERROR(strategy_->LoadState(&reader));
  uint32_t n_clients = 0;
  FEDGTA_RETURN_IF_ERROR(reader.ReadU32(&n_clients));
  if (n_clients != clients_.size()) {
    return FailedPreconditionError("checkpoint client count mismatch");
  }
  for (Client& client : clients_) {
    FEDGTA_RETURN_IF_ERROR(client.LoadState(&reader));
  }
  bool has_fedgl = false;
  FEDGTA_RETURN_IF_ERROR(reader.ReadBool(&has_fedgl));
  if (has_fedgl != (fedgl_ != nullptr)) {
    return FailedPreconditionError("checkpoint FedGL configuration mismatch");
  }
  if (fedgl_ != nullptr) {
    FEDGTA_RETURN_IF_ERROR(fedgl_->LoadState(&reader));
  }
  if (!reader.AtEnd()) {
    return InvalidArgumentError("trailing bytes in checkpoint payload");
  }

  resumed_ = true;
  start_round_ = static_cast<int>(completed);
  sampling_rng_state_ = std::move(rng_state);
  resume_best_val_ = best_val;
  resume_partial_ = std::move(partial);
  return OkStatus();
}

SimulationResult Simulation::Run() {
  if (config_.async) {
    // The async runtime holds stale updates across round boundaries with no
    // serialized representation, so checkpoint/resume (and the test-only
    // halt that exists for it) is rejected rather than silently lossy. FGL
    // wrappers assume strict round alignment of their pseudo-label /
    // mending state and are out of scope for the async path (DESIGN.md
    // §5i), as is any strategy that has not opted into async aggregation.
    FEDGTA_CHECK(config_.checkpoint_dir.empty() && !config_.resume &&
                 config_.halt_after_round == 0)
        << "async mode does not support checkpointing";
    FEDGTA_CHECK(config_.fgl == FglModel::kNone)
        << "async mode does not support FGL model wrappers";
    FEDGTA_CHECK(strategy_->Capabilities().async_capable)
        << "strategy '" << strategy_->name() << "' is not async-capable";
    FEDGTA_CHECK_GE(config_.staleness_tau, 0);
    FEDGTA_CHECK(config_.staleness_decay > 0.0 &&
                 config_.staleness_decay <= 1.0)
        << "staleness_decay must be in (0, 1]";
  }
  InProcessPlane plane(strategy_.get(), &clients_, fedgl_.get(),
                       config_.local_epochs);
  RoundEngine engine(config_,
                     config_.fgl == FglModel::kFedSage ? augmented_
                                                       : data_->clients,
                     &plane);
  if (!config_.checkpoint_dir.empty()) {
    const std::string path = CheckpointPath(config_.checkpoint_dir);
    if (config_.resume && std::filesystem::exists(path)) {
      const Status loaded = LoadCheckpoint(path);
      FEDGTA_CHECK(loaded.ok()) << "resume from " << path
                                << " failed: " << loaded;
    }
    engine.SetCheckpoint([this, path](int completed, const Rng& rng,
                                      double best_val,
                                      const SimulationResult& partial) {
      std::error_code ec;
      std::filesystem::create_directories(config_.checkpoint_dir, ec);
      return SaveCheckpoint(path, completed, rng, best_val, partial);
    });
  }
  if (resumed_) {
    engine.Resume(start_round_, sampling_rng_state_, resume_best_val_,
                  resume_partial_);
  }
  Result<SimulationResult> result = engine.Run();
  FEDGTA_CHECK(result.ok()) << "simulation failed: " << result.status();
  result->setup_seconds = setup_seconds_;
  return *std::move(result);
}

}  // namespace fedgta
