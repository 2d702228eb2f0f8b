#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

using fedgta::fed::RoundStats;
using fedgta::fed::RunResult;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> samples, int min_beyond) {
  Tail tail;
  tail.samples = static_cast<int>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const int n = tail.samples;
  // Nearest rank k (1-based) leaves n - k samples above it.
  const int median_rank = n / 2 + 1;
  const int rank = std::max(n - min_beyond, median_rank);
  tail.value = samples[static_cast<size_t>(rank - 1)];
  tail.percentile = 100.0 * rank / n;
  tail.beyond = n - rank;
  return tail;
}

int64_t UnionMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

int64_t SelfMicros(const std::vector<Span>& spans, int index) {
  const Span& span = spans[static_cast<size_t>(index)];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent == index) children.emplace_back(s.start_us, s.end_us);
  }
  return (span.end_us - span.start_us) -
         UnionMicros(std::move(children), span.start_us, span.end_us);
}

std::vector<Span> BuildRoundTree(const std::vector<int64_t>& round_starts_us,
                                 int64_t run_end_us,
                                 const std::vector<Span>& recorded) {
  const size_t rounds = round_starts_us.size();
  std::vector<Span> tree;
  // Rounds first (indices 0..rounds-1), then one client phase and one eval
  // span per round, then the recorded spans shifted past them.
  for (size_t r = 0; r < rounds; ++r) {
    Span round;
    round.name = "fed.round";
    round.start_us = round_starts_us[r];
    round.end_us = r + 1 < rounds ? round_starts_us[r + 1] : run_end_us;
    tree.push_back(round);
  }
  const int phase_base = static_cast<int>(tree.size());
  for (size_t r = 0; r < rounds; ++r) {
    Span phase;
    phase.name = "fed.client_phase";
    phase.start_us = INT64_MAX;
    phase.end_us = INT64_MIN;
    phase.parent = static_cast<int>(r);
    tree.push_back(phase);
  }
  const int eval_base = static_cast<int>(tree.size());
  for (size_t r = 0; r < rounds; ++r) {
    Span eval;
    eval.name = "fed.eval";
    eval.start_us = INT64_MIN;  // set from the round's aggregate below
    eval.end_us = tree[r].end_us;
    eval.parent = static_cast<int>(r);
    tree.push_back(eval);
  }
  const int shift = static_cast<int>(tree.size());
  auto round_of = [&](int64_t ts) -> int {
    auto it = std::upper_bound(round_starts_us.begin(), round_starts_us.end(),
                               ts);
    return static_cast<int>(it - round_starts_us.begin()) - 1;
  };
  for (const Span& s : recorded) {
    Span copy = s;
    if (s.parent >= 0) {
      copy.parent = s.parent + shift;
    } else {
      const int r = round_of(s.start_us);
      if (r < 0) {
        copy.parent = -1;  // before round 1 (setup): not part of any round
      } else if (s.name == "fed.client") {
        Span& phase = tree[static_cast<size_t>(phase_base + r)];
        phase.start_us = std::min(phase.start_us, s.start_us);
        phase.end_us = std::max(phase.end_us, s.end_us);
        copy.parent = phase_base + r;
      } else {
        copy.parent = r;
        if (s.name == "core.aggregate") {
          Span& eval = tree[static_cast<size_t>(eval_base + r)];
          eval.start_us = std::max(eval.start_us, s.end_us);
        }
      }
    }
    tree.push_back(copy);
  }
  // Rounds without clients or without an aggregate get empty spans at the
  // phase boundary they would have occupied.
  for (size_t r = 0; r < rounds; ++r) {
    Span& phase = tree[static_cast<size_t>(phase_base) + r];
    if (phase.start_us > phase.end_us) {
      phase.start_us = phase.end_us = tree[r].start_us;
    }
    Span& eval = tree[static_cast<size_t>(eval_base) + r];
    if (eval.start_us == INT64_MIN) {
      eval.start_us = std::max(phase.end_us, tree[r].start_us);
    }
    eval.start_us = std::min(eval.start_us, eval.end_us);
  }
  return tree;
}

std::vector<RoundLayers> AttributeRounds(const std::vector<Span>& tree) {
  std::vector<RoundLayers> out;
  std::vector<int> ordinal(tree.size(), -1);
  for (int i = 0; i < static_cast<int>(tree.size()); ++i) {
    if (tree[static_cast<size_t>(i)].name != "fed.round") continue;
    ordinal[static_cast<size_t>(i)] = static_cast<int>(out.size());
    const Span& round = tree[static_cast<size_t>(i)];
    RoundLayers layers;
    layers.period = (round.end_us - round.start_us) * 1e-6;
    layers.other = SelfMicros(tree, i) * 1e-6;
    for (int c = 0; c < static_cast<int>(tree.size()); ++c) {
      const Span& child = tree[static_cast<size_t>(c)];
      if (child.parent != i) continue;
      const double seconds = (child.end_us - child.start_us) * 1e-6;
      if (child.name == "fed.client_phase") {
        layers.client_phase += seconds;
        for (const Span& client : tree) {
          if (client.parent != c) continue;
          layers.client_sum += (client.end_us - client.start_us) * 1e-6;
        }
      } else if (child.name == "core.aggregate") {
        layers.aggregate += seconds;
      } else if (child.name == "fed.eval") {
        layers.eval += seconds;
      }
    }
    out.push_back(layers);
  }
  // Per-client layer spans hang below their client span; credit them to
  // the round that owns the client.
  for (const Span& s : tree) {
    if (s.name != "gnn.train" && s.name != "core.client_metrics") continue;
    int p = s.parent;
    while (p >= 0 && tree[static_cast<size_t>(p)].name != "fed.round") {
      p = tree[static_cast<size_t>(p)].parent;
    }
    if (p < 0) continue;
    const double seconds = (s.end_us - s.start_us) * 1e-6;
    RoundLayers& layers =
        out[static_cast<size_t>(ordinal[static_cast<size_t>(p)])];
    (s.name == "gnn.train" ? layers.train_sum : layers.metrics_sum) += seconds;
  }
  return out;
}

bool ParseProcCpuTicks(std::string_view line, int64_t* ticks) {
  const size_t close = line.rfind(')');
  if (close == std::string_view::npos) return false;
  std::istringstream in(std::string(line.substr(close + 1)));
  // Fields after the command: state(3) ppid pgrp session tty_nr tpgid
  // flags minflt cminflt majflt cmajflt utime(14) stime(15).
  std::vector<std::string> fields;
  std::string field;
  while (fields.size() < 13 && in >> field) fields.push_back(field);
  if (fields.size() < 13) return false;
  char* end = nullptr;
  const long long utime = std::strtoll(fields[11].c_str(), &end, 10);
  if (*end != '\0') return false;
  const long long stime = std::strtoll(fields[12].c_str(), &end, 10);
  if (*end != '\0') return false;
  *ticks = utime + stime;
  return true;
}

int64_t ParseVmHwmKb(std::string_view status) {
  const size_t at = status.find("VmHWM:");
  if (at == std::string_view::npos) return -1;
  const std::string rest(status.substr(at + 6, 64));
  char* end = nullptr;
  const long long kb = std::strtoll(rest.c_str(), &end, 10);
  return end == rest.c_str() ? -1 : kb;
}

std::vector<double> IntervalCpu(const std::vector<std::vector<double>>& samples,
                                const std::vector<int>& members) {
  std::vector<double> out;
  if (samples.size() < 2) return out;
  std::vector<double> last(members.size(), 0.0);
  std::vector<double> previous(members.size(), 0.0);
  for (size_t k = 0; k < samples.size(); ++k) {
    double interval = 0.0;
    for (size_t m = 0; m < members.size(); ++m) {
      const size_t p = static_cast<size_t>(members[m]);
      const double value = p < samples[k].size() ? samples[k][p] : -1.0;
      if (value >= 0.0) last[m] = std::max(last[m], value);
      interval += last[m] - previous[m];
      previous[m] = last[m];
    }
    if (k > 0) out.push_back(interval);
  }
  return out;
}

namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool ParseDouble(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return !token.empty() && *end == '\0';
}

bool ParseInt(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return !token.empty() && *end == '\0';
}

}  // namespace

std::string EncodeResult(const RunResult& r) {
  std::ostringstream out;
  out << "accuracy " << Hex(r.best_test_accuracy) << " "
      << Hex(r.final_test_accuracy) << "\n";
  out << "totals " << r.total_upload_floats << " " << r.total_download_floats
      << " " << r.total_dropped_clients << " " << r.total_straggler_clients
      << " " << r.total_crashed_clients << " " << r.resumed_from_round << " "
      << r.total_admitted_updates << " " << r.total_stale_dropped_updates
      << "\n";
  for (const RoundStats& s : r.curve) {
    out << "round " << s.round << " " << Hex(s.test_accuracy) << " "
        << Hex(s.val_accuracy) << " " << Hex(s.train_loss) << " "
        << s.upload_floats << " " << s.download_floats << " "
        << s.dropped_clients << " " << s.straggler_clients << " "
        << s.crashed_clients << "\n";
  }
  return out.str();
}

bool DecodeResult(std::string_view text, RunResult* out) {
  RunResult r;
  std::istringstream lines{std::string(text)};
  std::string line;
  bool saw_accuracy = false;
  bool saw_totals = false;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::vector<std::string> t;
    std::string token;
    while (in >> token) t.push_back(token);
    if (t.empty()) continue;
    if (t[0] == "accuracy" && t.size() == 3) {
      if (!ParseDouble(t[1], &r.best_test_accuracy) ||
          !ParseDouble(t[2], &r.final_test_accuracy)) {
        return false;
      }
      saw_accuracy = true;
    } else if (t[0] == "totals" && t.size() == 9) {
      int64_t v[8];
      for (int i = 0; i < 8; ++i) {
        if (!ParseInt(t[static_cast<size_t>(i + 1)], &v[i])) return false;
      }
      r.total_upload_floats = v[0];
      r.total_download_floats = v[1];
      r.total_dropped_clients = v[2];
      r.total_straggler_clients = v[3];
      r.total_crashed_clients = v[4];
      r.resumed_from_round = static_cast<int>(v[5]);
      r.total_admitted_updates = v[6];
      r.total_stale_dropped_updates = v[7];
      saw_totals = true;
    } else if (t[0] == "round" && t.size() == 10) {
      RoundStats s;
      int64_t round = 0;
      if (!ParseInt(t[1], &round) || !ParseDouble(t[2], &s.test_accuracy) ||
          !ParseDouble(t[3], &s.val_accuracy) ||
          !ParseDouble(t[4], &s.train_loss) ||
          !ParseInt(t[5], &s.upload_floats) ||
          !ParseInt(t[6], &s.download_floats) ||
          !ParseInt(t[7], &s.dropped_clients) ||
          !ParseInt(t[8], &s.straggler_clients) ||
          !ParseInt(t[9], &s.crashed_clients)) {
        return false;
      }
      s.round = static_cast<int>(round);
      r.curve.push_back(s);
    } else {
      return false;
    }
  }
  if (!saw_accuracy || !saw_totals) return false;
  *out = std::move(r);
  return true;
}

std::string FormatResultBlock(std::string_view key, const RunResult& result) {
  return std::string(key) + "\n" + EncodeResult(result) + "end\n";
}

bool FindResultBlock(std::string_view file_text, std::string_view key,
                     RunResult* out) {
  const std::string header = std::string(key) + "\n";
  size_t at = 0;
  while ((at = file_text.find(header, at)) != std::string_view::npos) {
    if (at == 0 || file_text[at - 1] == '\n') break;
    at += header.size();
  }
  if (at == std::string_view::npos) return false;
  const size_t body = at + header.size();
  const size_t end = file_text.find("\nend\n", body - 1);
  if (end == std::string_view::npos) return false;
  return DecodeResult(file_text.substr(body, end + 1 - body), out);
}

std::string CompareResults(const std::string& what, const RunResult& expected,
                           const RunResult& actual) {
  std::string diff;
  if (fedgta::fed::DeterministicEquals(expected, actual, &diff)) return "";
  return what + ": " + diff;
}

}  // namespace perfbench
