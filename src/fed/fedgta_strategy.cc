#include "fed/fedgta_strategy.h"

#include "obs/phase.h"

namespace fedgta {

void FedGtaStrategy::Initialize(int num_clients,
                                const std::vector<int64_t>& train_sizes,
                                const std::vector<float>& init_params) {
  Strategy::Initialize(num_clients, train_sizes, init_params);
  personal_.assign(static_cast<size_t>(num_clients), init_params);
  last_confidences_.assign(static_cast<size_t>(num_clients), 0.0);
}

std::span<const float> FedGtaStrategy::ParamsFor(int client_id) const {
  FEDGTA_CHECK(client_id >= 0 && client_id < num_clients_);
  return personal_[static_cast<size_t>(client_id)];
}

LocalResult FedGtaStrategy::TrainClient(Client& client, int epochs,
                                        const TrainHooks& extra_hooks) {
  // Algorithm 1: local update (Eq. 2), then topology-aware metrics
  // (Eq. 3-5) computed on the freshly trained weights.
  LocalResult result = Strategy::TrainClient(client, epochs, extra_hooks);
  result.metrics = client.ComputeFedGtaMetrics(options_);
  return result;
}

void FedGtaStrategy::Aggregate(const std::vector<int>& participants,
                               const std::vector<LocalResult>& results) {
  FEDGTA_PHASE_SCOPE("aggregation");
  if (results.empty()) return;
  // Scatter uploads into id-indexed tables for the core aggregation. Eq. 6
  // set building inside sweeps the exact GEMM cosine block (DESIGN.md §5h).
  std::vector<ClientMetrics> metrics(static_cast<size_t>(num_clients_));
  std::vector<std::vector<float>> params(static_cast<size_t>(num_clients_));
  for (const LocalResult& r : results) {
    metrics[static_cast<size_t>(r.client_id)] = r.metrics;
    params[static_cast<size_t>(r.client_id)] = r.params;
    last_confidences_[static_cast<size_t>(r.client_id)] =
        r.metrics.confidence;
  }
  FedGtaAggregate(metrics, params, train_sizes_, participants, options_,
                  &personal_, &last_sets_);
}

void FedGtaStrategy::SaveState(serialize::Writer* writer) const {
  Strategy::SaveState(writer);
  SaveFloatVecs(personal_, writer);
  writer->WriteDoubleVec(last_confidences_);
  writer->WriteU32(static_cast<uint32_t>(last_sets_.size()));
  for (const std::vector<int>& set : last_sets_) writer->WriteI32Vec(set);
}

Status FedGtaStrategy::LoadState(serialize::Reader* reader) {
  FEDGTA_RETURN_IF_ERROR(Strategy::LoadState(reader));
  std::vector<std::vector<float>> personal;
  FEDGTA_RETURN_IF_ERROR(LoadFloatVecs(reader, &personal));
  if (personal.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("personalized model table size mismatch");
  }
  std::vector<double> confidences;
  FEDGTA_RETURN_IF_ERROR(reader->ReadDoubleVec(&confidences));
  if (confidences.size() != static_cast<size_t>(num_clients_)) {
    return FailedPreconditionError("confidence table size mismatch");
  }
  uint32_t num_sets = 0;
  FEDGTA_RETURN_IF_ERROR(reader->ReadU32(&num_sets));
  std::vector<std::vector<int>> sets(num_sets);
  for (std::vector<int>& set : sets) {
    FEDGTA_RETURN_IF_ERROR(reader->ReadI32Vec(&set));
  }
  personal_ = std::move(personal);
  last_confidences_ = std::move(confidences);
  last_sets_ = std::move(sets);
  return OkStatus();
}

}  // namespace fedgta
