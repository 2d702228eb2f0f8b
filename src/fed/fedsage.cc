#include "fed/fedsage.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "nn/linear.h"
#include "nn/optimizer.h"

namespace fedgta {
namespace {

// Per-client missing-neighbor supervision: each observed node's count of
// hidden neighbors and the mean feature of those hidden neighbors.
struct GenSupervision {
  Matrix observed_features;  // rows: observed nodes
  Matrix degree_targets;     // n_obs x 1
  Matrix positive_features;  // rows: observed nodes with >= 1 hidden nbr
  Matrix feature_targets;    // matching rows: mean hidden-neighbor feature
};

GenSupervision BuildSupervision(const ClientData& client, double hide_fraction,
                                Rng& rng) {
  const int64_t n = client.num_nodes();
  const int64_t f = client.features.cols();
  const int hide_count = std::max(
      1, static_cast<int>(hide_fraction * static_cast<double>(n)));
  const std::vector<int> hidden = rng.SampleWithoutReplacement(
      static_cast<int>(n), std::min<int>(hide_count, static_cast<int>(n) - 1));
  std::unordered_set<int> hidden_set(hidden.begin(), hidden.end());

  std::vector<int> observed;
  std::vector<float> deg_target;
  std::vector<int> positive;
  std::vector<std::vector<float>> feat_target;
  for (NodeId v = 0; v < client.sub.graph.num_nodes(); ++v) {
    if (hidden_set.count(v)) continue;
    int miss = 0;
    std::vector<float> mean(static_cast<size_t>(f), 0.0f);
    for (NodeId u : client.sub.graph.Neighbors(v)) {
      if (!hidden_set.count(u)) continue;
      ++miss;
      const auto feat = client.features.Row(u);
      for (int64_t j = 0; j < f; ++j) mean[static_cast<size_t>(j)] += feat[static_cast<size_t>(j)];
    }
    observed.push_back(v);
    deg_target.push_back(static_cast<float>(miss));
    if (miss > 0) {
      for (float& x : mean) x /= static_cast<float>(miss);
      positive.push_back(v);
      feat_target.push_back(std::move(mean));
    }
  }

  GenSupervision sup;
  sup.observed_features.ResizeDiscard(static_cast<int64_t>(observed.size()), f);
  sup.degree_targets.ResizeDiscard(static_cast<int64_t>(observed.size()), 1);
  for (size_t i = 0; i < observed.size(); ++i) {
    const auto src = client.features.Row(observed[i]);
    std::copy(src.begin(), src.end(),
              sup.observed_features.Row(static_cast<int64_t>(i)).begin());
    sup.degree_targets(static_cast<int64_t>(i), 0) = deg_target[i];
  }
  sup.positive_features.ResizeDiscard(static_cast<int64_t>(positive.size()), f);
  sup.feature_targets.ResizeDiscard(static_cast<int64_t>(positive.size()), f);
  for (size_t i = 0; i < positive.size(); ++i) {
    const auto src = client.features.Row(positive[i]);
    std::copy(src.begin(), src.end(),
              sup.positive_features.Row(static_cast<int64_t>(i)).begin());
    std::copy(feat_target[i].begin(), feat_target[i].end(),
              sup.feature_targets.Row(static_cast<int64_t>(i)).begin());
  }
  return sup;
}

// One MSE training epoch of a linear head; returns the loss.
double MseEpoch(Linear& layer, const Matrix& x, const Matrix& target,
                Optimizer& opt) {
  if (x.rows() == 0) return 0.0;
  Matrix pred = layer.Forward(x);
  FEDGTA_CHECK_EQ(pred.cols(), target.cols());
  Matrix dpred(pred.rows(), pred.cols());
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(pred.rows());
  for (int64_t i = 0; i < pred.size(); ++i) {
    const float diff = pred.data()[i] - target.data()[i];
    loss += static_cast<double>(diff) * diff;
    dpred.data()[i] = 2.0f * diff * inv_n;
  }
  layer.ZeroGrad();
  layer.BackwardParams(dpred);
  const std::vector<ParamRef> params = layer.Params();
  opt.Step(params);
  return loss * inv_n;
}

// Weighted average of linear layers across clients (FedAvg on generators).
void AverageLayers(std::vector<Linear>& layers,
                   const std::vector<float>& weights) {
  FEDGTA_CHECK(!layers.empty());
  std::vector<ParamRef> first = layers.front().Params();
  std::vector<std::vector<float>> flats;
  flats.reserve(layers.size());
  for (Linear& layer : layers) flats.push_back(FlattenParams(layer.Params()));
  std::vector<float> avg(flats.front().size(), 0.0f);
  float total = 0.0f;
  for (float w : weights) total += w;
  for (size_t c = 0; c < layers.size(); ++c) {
    const float w = weights[c] / total;
    for (size_t j = 0; j < avg.size(); ++j) avg[j] += w * flats[c][j];
  }
  for (Linear& layer : layers) UnflattenParams(avg, layer.Params());
}

}  // namespace

std::vector<ClientData> FedSageAugment(const std::vector<ClientData>& clients,
                                       const FedSageConfig& config, Rng& rng) {
  FEDGTA_CHECK(!clients.empty());
  const int64_t f = clients.front().features.cols();

  // Standardize generator inputs/targets by the global feature RMS so the
  // MSE regression is well-conditioned regardless of the feature scale.
  double sq_sum = 0.0;
  int64_t count = 0;
  for (const ClientData& client : clients) {
    sq_sum += client.features.FrobeniusNormSquared();
    count += client.features.size();
  }
  const float scale =
      count > 0 ? static_cast<float>(std::sqrt(sq_sum / static_cast<double>(count)))
                : 1.0f;
  const float inv_scale = scale > 0.0f ? 1.0f / scale : 1.0f;

  // Train one NeighGen per client with cross-client weight averaging.
  std::vector<GenSupervision> supervision;
  std::vector<Linear> degree_heads;
  std::vector<Linear> feature_heads;
  std::vector<std::unique_ptr<Optimizer>> deg_opts;
  std::vector<std::unique_ptr<Optimizer>> feat_opts;
  std::vector<float> weights;
  OptimizerConfig opt_cfg;
  opt_cfg.type = OptimizerType::kSgd;
  opt_cfg.lr = config.gen_lr;
  opt_cfg.momentum = 0.0f;
  opt_cfg.weight_decay = 0.0f;
  for (const ClientData& client : clients) {
    GenSupervision sup = BuildSupervision(client, config.hide_fraction, rng);
    sup.observed_features *= inv_scale;
    sup.positive_features *= inv_scale;
    sup.feature_targets *= inv_scale;
    supervision.push_back(std::move(sup));
    degree_heads.emplace_back(f, 1, rng);
    feature_heads.emplace_back(f, f, rng);
    deg_opts.push_back(MakeOptimizer(opt_cfg));
    feat_opts.push_back(MakeOptimizer(opt_cfg));
    weights.push_back(
        static_cast<float>(supervision.back().observed_features.rows()) + 1.0f);
  }
  for (int round = 0; round < config.gen_fed_rounds; ++round) {
    for (size_t c = 0; c < clients.size(); ++c) {
      for (int e = 0; e < config.gen_epochs; ++e) {
        MseEpoch(degree_heads[c], supervision[c].observed_features,
                 supervision[c].degree_targets, *deg_opts[c]);
        MseEpoch(feature_heads[c], supervision[c].positive_features,
                 supervision[c].feature_targets, *feat_opts[c]);
      }
    }
    AverageLayers(degree_heads, weights);
    AverageLayers(feature_heads, weights);
  }

  // Mend each client's subgraph with generated neighbors.
  std::vector<ClientData> mended;
  mended.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    const ClientData& client = clients[c];
    ClientData out = client;

    Matrix scaled_features = client.features;
    scaled_features *= inv_scale;
    Matrix pred_deg = degree_heads[c].Forward(scaled_features);
    Matrix pred_feat = feature_heads[c].Forward(scaled_features);
    pred_feat *= scale;  // back to the data's feature scale

    std::vector<Edge> new_edges = client.sub.graph.UndirectedEdges();
    const size_t original_edge_count = new_edges.size();
    std::vector<std::vector<float>> new_features;
    std::vector<int> new_labels;
    NodeId next_id = client.sub.graph.num_nodes();
    for (NodeId v = 0; v < client.sub.graph.num_nodes(); ++v) {
      const int n_gen = std::clamp(
          static_cast<int>(std::lround(pred_deg(v, 0))), 0,
          config.max_generated);
      for (int g = 0; g < n_gen; ++g) {
        std::vector<float> feat(static_cast<size_t>(f));
        const auto base = pred_feat.Row(v);
        for (int64_t j = 0; j < f; ++j) {
          feat[static_cast<size_t>(j)] =
              base[static_cast<size_t>(j)] +
              rng.Normal(0.0f, config.noise_scale * scale);
        }
        new_features.push_back(std::move(feat));
        new_labels.push_back(client.labels[static_cast<size_t>(v)]);
        new_edges.push_back({v, next_id});
        ++next_id;
      }
    }

    const int64_t n_new = static_cast<int64_t>(new_features.size());
    const int64_t n_total = client.sub.graph.num_nodes() + n_new;
    out.sub.graph = Graph::FromEdges(static_cast<NodeId>(n_total), new_edges);
    out.sub.global_ids.resize(static_cast<size_t>(n_total), NodeId{-1});
    out.features.ResizeDiscard(n_total, f);
    for (int64_t i = 0; i < client.num_nodes(); ++i) {
      const auto src = client.features.Row(i);
      std::copy(src.begin(), src.end(), out.features.Row(i).begin());
    }
    out.labels.resize(static_cast<size_t>(n_total));
    for (int64_t i = 0; i < n_new; ++i) {
      std::copy(new_features[static_cast<size_t>(i)].begin(),
                new_features[static_cast<size_t>(i)].end(),
                out.features.Row(client.num_nodes() + i).begin());
      out.labels[static_cast<size_t>(client.num_nodes() + i)] =
          new_labels[static_cast<size_t>(i)];
    }
    // Training-view graph gains the generated edges too (generated nodes
    // are never test nodes).
    std::vector<Edge> train_edges = client.train_graph.UndirectedEdges();
    for (size_t e = original_edge_count; e < new_edges.size(); ++e) {
      train_edges.push_back(new_edges[e]);
    }
    out.train_graph = Graph::FromEdges(static_cast<NodeId>(n_total), train_edges);
    mended.push_back(std::move(out));
  }
  return mended;
}

}  // namespace fedgta
