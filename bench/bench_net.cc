// Loopback transport benchmark: round-trip latency and throughput of the
// net/ RPC stack over 127.0.0.1 for payloads from 1 KiB to 64 MiB (the
// size range of real weight uploads), writing BENCH_net.json for
// perf-trend tracking. The echo path is the real protocol path — framed,
// CRC-validated TrainRequest/TrainResponse exchanges over an RpcChannel —
// so serialization cost is included, exactly as a federated round pays it.
//
// A second arm (BENCH_net_compress.json) measures the wire-compression
// plane (DESIGN.md §5j): per-codec bytes per round on FedGTA-shaped
// train-response payloads (weights + moments), with a hard >= 4x gate on
// the delta codec, plus a bandwidth-throttled loopback comparison of
// time-per-round uncompressed (--compress=off: no Link) vs delta through
// the real RPC stack.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "net/compress/codec.h"
#include "net/compress/wire.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "obs/metrics.h"

namespace fedgta {
namespace {

struct SweepPoint {
  size_t payload_bytes = 0;
  double rtt_ms = 0.0;
  double mb_per_s = 0.0;  // both directions
};

void EchoServer(net::Socket sock) {
  while (true) {
    Result<serialize::Reader> reader = net::RecvMessage(sock);
    if (!reader.ok()) return;
    Result<net::MsgType> type = net::ReadMsgType(&*reader);
    if (!type.ok()) return;
    if (*type == net::MsgType::kShutdown) {
      net::ShutdownAckMsg ack;
      (void)net::SendMessage(sock, ack);
      return;
    }
    FEDGTA_CHECK(*type == net::MsgType::kTrainRequest);
    net::TrainRequestMsg req;
    FEDGTA_CHECK(req.Decode(&*reader).ok());
    net::TrainResponseMsg resp;
    resp.client_id = req.client_id;
    resp.weights = std::move(req.weights);
    FEDGTA_CHECK(net::SendMessage(sock, resp).ok());
  }
}

void RunSweep(const char* out_path) {
  const bool full = std::getenv("FEDGTA_BENCH_MODE") != nullptr &&
                    std::string(std::getenv("FEDGTA_BENCH_MODE")) == "full";
  const int reps = full ? 9 : 5;

  Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
  FEDGTA_CHECK(server.ok());
  const int port = server->port();
  std::thread echo([&server] {
    Result<net::Socket> peer = server->Accept(10000);
    FEDGTA_CHECK(peer.ok());
    EchoServer(std::move(*peer));
  });

  net::RpcOptions options;
  options.deadline_ms = 60000;
  Result<net::Socket> dialed = net::ConnectWithRetry("127.0.0.1", port,
                                                     options);
  FEDGTA_CHECK(dialed.ok());
  net::RpcChannel channel(std::move(*dialed), options);

  const std::vector<size_t> sizes = {1u << 10,  16u << 10, 256u << 10,
                                     1u << 20,  4u << 20,  16u << 20,
                                     64u << 20};
  std::vector<SweepPoint> points;
  for (const size_t bytes : sizes) {
    net::TrainRequestMsg req;
    req.client_id = 1;
    req.weights.assign(bytes / sizeof(float), 0.5f);
    std::vector<double> rtts;
    for (int rep = 0; rep < reps; ++rep) {
      net::TrainResponseMsg resp;
      WallTimer timer;
      FEDGTA_CHECK(channel.Call(req, &resp).ok());
      rtts.push_back(timer.Seconds());
      FEDGTA_CHECK(resp.weights.size() == req.weights.size());
    }
    std::sort(rtts.begin(), rtts.end());
    const double median = rtts[rtts.size() / 2];
    SweepPoint p;
    p.payload_bytes = bytes;
    p.rtt_ms = 1e3 * median;
    p.mb_per_s = 2.0 * static_cast<double>(bytes) / median / 1e6;
    points.push_back(p);
    std::printf("payload=%8zu B  rtt=%9.3f ms  throughput=%8.1f MB/s\n",
                p.payload_bytes, p.rtt_ms, p.mb_per_s);
    std::fflush(stdout);
  }

  {
    net::ShutdownMsg shutdown;
    net::ShutdownAckMsg ack;
    FEDGTA_CHECK(net::SendMessage(channel.socket(), shutdown).ok());
    FEDGTA_CHECK(net::ExpectMessage(channel.socket(), &ack).ok());
  }
  echo.join();

  // Per-RPC latency distribution across the whole sweep, from the same
  // histogram the coordinator populates in production.
  const Histogram* rpc = GlobalMetrics().FindHistogram("net.rpc.seconds");
  const Histogram::Snapshot snap =
      rpc != nullptr ? rpc->snapshot() : Histogram::Snapshot{};

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s, skipping JSON dump\n", out_path);
    return;
  }
  std::fprintf(f, "{\n  \"sweep\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "    {\"payload_bytes\": %zu, \"rtt_ms\": %.4f, "
                 "\"mb_per_s\": %.2f}%s\n",
                 p.payload_bytes, p.rtt_ms, p.mb_per_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"rpc_seconds\": {\"count\": %lld, \"mean\": %.6f, "
               "\"p50\": %.6f, \"p99\": %.6f}\n}\n",
               static_cast<long long>(snap.count), snap.mean(),
               snap.Quantile(0.5), snap.Quantile(0.99));
  std::fclose(f);
  std::printf("loopback sweep written to %s\n", out_path);
}

// -- Compression arm ---------------------------------------------------------

struct CodecPoint {
  std::string codec;
  size_t download_bytes = 0;  // dense under every codec
  size_t upload_bytes = 0;    // weights + moments, steady-state round
  double upload_ratio_vs_raw = 0.0;  // vs uncompressed WriteFloatVec bytes
  double encode_decode_ms = 0.0;
};

// FedGTA-shaped payloads: a model-sized weight tensor and a (k*K)x|Y|
// moment matrix upload per client per round.
constexpr size_t kWeightElems = 1u << 18;  // ~1 MiB of fp32
constexpr size_t kMomentElems = 1024;

std::vector<float> MakeWeights(uint64_t seed) {
  std::vector<float> w(kWeightElems);
  uint64_t state = seed;
  for (float& v : w) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<float>(static_cast<int32_t>(state >> 33)) * 1e-9f;
  }
  return w;
}

// Perturbs like one round of local training: every element drifts a
// little, a sparse subset moves a lot (what delta's top-k chases).
void Train(std::vector<float>* w, int round) {
  for (size_t i = 0; i < w->size(); ++i) {
    (*w)[i] += 1e-5f;
    if ((i + static_cast<size_t>(round)) % 16 == 0) {
      (*w)[i] += 1e-2f * static_cast<float>((i % 7) + 1);
    }
  }
}

std::vector<CodecPoint> RunCodecSweep() {
  std::vector<CodecPoint> points;
  const int measured_round = 2;  // round 0 warms the delta bases
  for (const std::string& name : net::compress::ListCodecNames()) {
    const net::compress::Codec* codec = net::compress::FindCodec(name);
    FEDGTA_CHECK(codec != nullptr);
    net::compress::Link server(codec, 0);
    net::compress::Link worker(codec, 0);
    std::vector<float> model = MakeWeights(0x5714);
    std::vector<float> moments(kMomentElems, 0.25f);
    CodecPoint p;
    p.codec = name;
    WallTimer timer;
    for (int round = 0; round <= measured_round; ++round) {
      serialize::Writer down;
      server.EncodeDownload(0, model, &down);
      {
        Result<serialize::Reader> r =
            serialize::Reader::FromBuffer(down.Encode());
        FEDGTA_CHECK(r.ok());
        std::vector<float> got;
        FEDGTA_CHECK(worker.DecodeDownload(0, &*r, &got).ok());
        model = std::move(got);
      }
      Train(&model, round);
      for (float& m : moments) m *= 0.99f;
      serialize::Writer up;
      worker.EncodeUploadWeights(0, model, &up);
      worker.EncodeMoments(0, moments, &up);
      {
        Result<serialize::Reader> r =
            serialize::Reader::FromBuffer(up.Encode());
        FEDGTA_CHECK(r.ok());
        std::vector<float> w, m;
        FEDGTA_CHECK(server.DecodeUploadWeights(0, &*r, &w).ok());
        FEDGTA_CHECK(server.DecodeMoments(0, &*r, &m).ok());
        model = std::move(w);  // lossy codecs: stay in lockstep with the
                               // server's view, like a real federation
      }
      if (round == measured_round) {
        p.download_bytes = down.payload().size();
        p.upload_bytes = up.payload().size();
      }
    }
    p.encode_decode_ms =
        1e3 * timer.Seconds() / static_cast<double>(measured_round + 1);
    points.push_back(p);
  }
  // The uncompressed upload a Link-less connection ships for the same
  // tensors: one WriteFloatVec each.
  serialize::Writer off;
  off.WriteFloatVec(std::vector<float>(kWeightElems));
  off.WriteFloatVec(std::vector<float>(kMomentElems));
  const double raw_upload = static_cast<double>(off.payload().size());
  std::printf("codec=off    upload=%8zu B\n", off.payload().size());
  for (CodecPoint& p : points) {
    p.upload_ratio_vs_raw = raw_upload / static_cast<double>(p.upload_bytes);
    std::printf(
        "codec=%-6s download=%8zu B  upload=%8zu B  ratio=%5.2fx  "
        "codec_ms=%7.3f\n",
        p.codec.c_str(), p.download_bytes, p.upload_bytes,
        p.upload_ratio_vs_raw, p.encode_decode_ms);
  }
  // Gate: delta must beat uncompressed by >= 4x on train-response bytes.
  FEDGTA_CHECK(points.back().codec == "delta");
  FEDGTA_CHECK(points.back().upload_ratio_vs_raw >= 4.0);
  return points;
}

// One end of a connection under `codec_name`: no Link for "off", as the
// server and worker build none.
std::unique_ptr<net::compress::Link> MakeLink(const std::string& codec_name) {
  if (codec_name == "off") return nullptr;
  const net::compress::Codec* codec = net::compress::FindCodec(codec_name);
  FEDGTA_CHECK(codec != nullptr);
  return std::make_unique<net::compress::Link>(codec, 0);
}

// One federated round's traffic through the real RPC stack (echo server
// below), with the frame layer throttled to `bandwidth_bytes_per_sec` —
// the regime where compression buys wall-clock, not just bytes.
void CompressEchoServer(net::Socket sock, const std::string& codec_name) {
  const std::unique_ptr<net::compress::Link> link = MakeLink(codec_name);
  net::compress::Link* lp = link.get();
  std::vector<float> moments(kMomentElems, 0.5f);
  while (true) {
    Result<serialize::Reader> reader = net::RecvMessage(sock);
    if (!reader.ok()) return;
    Result<net::MsgType> type = net::ReadMsgType(&*reader);
    if (!type.ok()) return;
    if (*type == net::MsgType::kShutdown) {
      net::ShutdownAckMsg ack;
      (void)net::SendMessage(sock, ack);
      return;
    }
    FEDGTA_CHECK(*type == net::MsgType::kTrainRequest);
    net::TrainRequestMsg req;
    FEDGTA_CHECK(req.Decode(&*reader, lp).ok());
    net::TrainResponseMsg resp;
    resp.client_id = req.client_id;
    resp.round = req.round;
    resp.weights = std::move(req.weights);
    Train(&resp.weights, req.round);
    resp.moments = moments;
    FEDGTA_CHECK(net::SendMessage(sock, resp, lp).ok());
  }
}

double RunThrottledRounds(const std::string& codec_name, int rounds,
                          int64_t bandwidth_bytes_per_sec) {
  Result<net::ServerSocket> server = net::ServerSocket::Listen(0);
  FEDGTA_CHECK(server.ok());
  const int port = server->port();
  std::thread echo([&server, codec_name] {
    Result<net::Socket> peer = server->Accept(10000);
    FEDGTA_CHECK(peer.ok());
    CompressEchoServer(std::move(*peer), codec_name);
  });

  net::RpcOptions options;
  options.deadline_ms = 120000;
  Result<net::Socket> dialed =
      net::ConnectWithRetry("127.0.0.1", port, options);
  FEDGTA_CHECK(dialed.ok());
  net::RpcChannel channel(std::move(*dialed), options);

  const std::unique_ptr<net::compress::Link> link = MakeLink(codec_name);
  net::compress::Link* lp = link.get();

  std::vector<float> model = MakeWeights(0xBE7C);
  net::SetSendThrottleBytesPerSec(bandwidth_bytes_per_sec);
  WallTimer timer;
  for (int round = 1; round <= rounds; ++round) {
    net::TrainRequestMsg req;
    req.client_id = 0;
    req.round = round;
    req.weights = model;
    net::TrainResponseMsg resp;
    FEDGTA_CHECK(channel.Call(req, &resp, lp).ok());
    FEDGTA_CHECK(resp.weights.size() == model.size());
    model = std::move(resp.weights);  // next round's global model
  }
  const double seconds = timer.Seconds();
  net::SetSendThrottleBytesPerSec(0);

  {
    net::ShutdownMsg shutdown;
    net::ShutdownAckMsg ack;
    FEDGTA_CHECK(net::SendMessage(channel.socket(), shutdown).ok());
    FEDGTA_CHECK(net::ExpectMessage(channel.socket(), &ack).ok());
  }
  echo.join();
  return seconds;
}

void RunCompressArm(const char* out_path) {
  const bool full = std::getenv("FEDGTA_BENCH_MODE") != nullptr &&
                    std::string(std::getenv("FEDGTA_BENCH_MODE")) == "full";
  const int rounds = full ? 16 : 6;
  const int64_t bandwidth = 16 << 20;  // 16 MiB/s — WAN-ish uplink

  const std::vector<CodecPoint> sweep = RunCodecSweep();

  const double raw_s = RunThrottledRounds("off", rounds, bandwidth);
  const double delta_s = RunThrottledRounds("delta", rounds, bandwidth);
  std::printf(
      "throttled @%lld MiB/s: %d rounds off=%.3fs delta=%.3fs "
      "speedup=%.2fx\n",
      static_cast<long long>(bandwidth >> 20), rounds, raw_s, delta_s,
      raw_s / delta_s);
  // Delta leaves the dense download untouched, so the round time drops
  // from ~2 MiB to ~1.2 MiB of link time — about 1.6x here. Gate with
  // margin so scheduler jitter can't flake the check.
  FEDGTA_CHECK(raw_s / delta_s >= 1.25);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s, skipping JSON dump\n", out_path);
    return;
  }
  std::fprintf(f, "{\n  \"codec_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const CodecPoint& p = sweep[i];
    std::fprintf(f,
                 "    {\"codec\": \"%s\", \"download_bytes\": %zu, "
                 "\"upload_bytes\": %zu, \"upload_ratio_vs_raw\": %.2f, "
                 "\"encode_decode_ms\": %.4f}%s\n",
                 p.codec.c_str(), p.download_bytes, p.upload_bytes,
                 p.upload_ratio_vs_raw, p.encode_decode_ms,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"throttled\": {\"bandwidth_bytes_per_sec\": %lld, "
               "\"rounds\": %d, \"raw_seconds\": %.4f, "
               "\"delta_seconds\": %.4f, \"speedup\": %.3f}\n}\n",
               static_cast<long long>(bandwidth), rounds, raw_s, delta_s,
               raw_s / delta_s);
  std::fclose(f);
  std::printf("compression arm written to %s\n", out_path);
}

}  // namespace
}  // namespace fedgta

int main() {
  std::printf("== loopback RPC sweep (1 KiB - 64 MiB payloads) ==\n");
  fedgta::RunSweep("BENCH_net.json");
  std::printf("== wire compression arm (codecs + throttled rounds) ==\n");
  fedgta::RunCompressArm("BENCH_net_compress.json");
  return 0;
}
